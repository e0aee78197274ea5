module Machine = Mcsim_cluster.Machine
module Assignment = Mcsim_cluster.Assignment
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Spec92 = Mcsim_workload.Spec92
module Pool = Mcsim_util.Pool
module Cache = Mcsim_cache.Cache

type point = {
  label : string;
  dual_cycles : int;
  speedup_pct : float;
  replays : int;
  dual_distributed : int;
}

type sweep = {
  sweep_name : string;
  benchmark : string;
  points : point list;
}

(* Per-benchmark work shared by a sweep's points. Each shared value is
   made by the first point that needs it, on whichever domain runs that
   point, so a sweep whose points are all recorded makes none of it. *)
type ctx = {
  bench_name : string;
  max_instrs : int;
  prog : Mcsim_ir.Program.t;
  compiled_trace : Pipeline.scheduler -> Mcsim_isa.Flat_trace.t;
      (* the program compiled by a scheduler and walked; not shared *)
  native_trace : unit -> Mcsim_isa.Flat_trace.t;
  single_cycles : unit -> int;  (* the native binary on the single-cluster machine *)
  local_trace : unit -> Mcsim_isa.Flat_trace.t;
}

let ctx_of ~max_instrs ~bench_name prog =
  let profile = Pool.once (fun () -> Walker.profile prog) in
  let compiled_trace scheduler =
    let c = Pipeline.compile ~profile:(profile ()) ~scheduler prog in
    Walker.trace_flat ~max_instrs c.Pipeline.mach
  in
  let native_trace = Pool.once (fun () -> compiled_trace Pipeline.Sched_none) in
  { bench_name;
    max_instrs;
    prog;
    compiled_trace;
    native_trace;
    single_cycles =
      Pool.once (fun () ->
          (Machine.run_flat (Machine.single_cluster ()) (native_trace ())).Machine.cycles);
    local_trace = Pool.once (fun () -> compiled_trace Pipeline.default_local) }

let dual trace = Machine.run_flat (Machine.dual_cluster ()) trace

(* ------------------------------------------------------------------ *)
(* Durable point fan-out                                               *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json

let ( let* ) = Option.bind

let point_json p =
  [ ("label", Json.String p.label);
    ("dual_cycles", Json.Int p.dual_cycles);
    ("speedup_pct", Json.Float p.speedup_pct);
    ("replays", Json.Int p.replays);
    ("dual_distributed", Json.Int p.dual_distributed) ]

let point_of_json d =
  let int k = Option.bind (Json.member k d) Json.get_int in
  let* label = Option.bind (Json.member "label" d) Json.get_string in
  let* dual_cycles = int "dual_cycles" in
  let* speedup_pct = Option.bind (Json.member "speedup_pct" d) Json.get_float in
  let* replays = int "replays" in
  let* dual_distributed = int "dual_distributed" in
  Some { label; dual_cycles; speedup_pct; replays; dual_distributed }

let point_of ~single_cycles label (r : Machine.result) =
  { label;
    dual_cycles = r.Machine.cycles;
    speedup_pct =
      Mcsim_timing.Net_performance.speedup_pct ~single_cycles ~dual_cycles:r.Machine.cycles;
    replays = r.Machine.replays;
    dual_distributed = r.Machine.dual_distributed }

(* ------------------------------------------------------------------ *)
(* The sweeps                                                          *)
(* ------------------------------------------------------------------ *)

let unroll_label factor =
  if factor = 1 then "no unrolling" else Printf.sprintf "unroll x%d" factor

(* [prog] unrolled by [factor], rescheduled with the local scheduler. *)
let unrolled_trace ~max_instrs ~factor prog =
  let prog = Mcsim_compiler.Unroll.unroll ~factor prog in
  let profile = Walker.profile prog in
  let c = Pipeline.compile ~profile ~scheduler:Pipeline.default_local prog in
  Walker.trace_flat ~max_instrs c.Pipeline.mach

type kind = {
  name : string;
  title : string;  (* the sweep's [sweep_name] *)
  labelled : (string * (ctx -> point)) list;
}

let kind_name k = k.name

(* A labelled point whose simulation is compared against the context's
   single-cluster baseline. *)
let vs_single label run =
  (label, fun ctx -> point_of ~single_cycles:(ctx.single_cycles ()) label (run ctx))

(* The dual-cluster machine, adjusted by [f], on the local-scheduler
   trace. *)
let local_dual f ctx = Machine.run_flat (f (Machine.dual_cluster ())) (ctx.local_trace ())

let kind name title labelled = { name; title; labelled }

let unroll =
  kind "unroll" "loop unrolling before the local scheduler (paper section 6)"
    (List.map
       (fun factor ->
         vs_single (unroll_label factor) (fun ctx ->
             dual
               (if factor = 1 then ctx.local_trace ()
                  (* unroll x1 is the identity: this is exactly the
                     local-scheduler binary the context already holds *)
                else unrolled_trace ~max_instrs:ctx.max_instrs ~factor ctx.prog)))
       [ 1; 2; 4 ])

let kinds =
  [ kind "buffers" "transfer-buffer entries per cluster (local scheduler)"
      (List.map
         (fun n ->
           vs_single (Printf.sprintf "%d entries" n)
             (local_dual (fun c ->
                  { c with
                    Machine.operand_buffer_entries = n;
                    result_buffer_entries = n })))
         [ 2; 4; 8; 16; 32 ]);
    kind "threshold" "local-scheduler imbalance threshold"
      (List.map
         (fun t ->
           vs_single (Printf.sprintf "threshold %d" t) (fun ctx ->
               dual
                 (ctx.compiled_trace
                    (Pipeline.Sched_local { imbalance_threshold = t; window = 0 }))))
         [ 1; 2; 4; 8; 16; 32 ]);
    kind "partitioners" "live-range partitioner"
      [ vs_single "none" (fun ctx -> dual (ctx.native_trace ()));
        vs_single "random" (fun ctx -> dual (ctx.compiled_trace (Pipeline.Sched_random 7)));
        vs_single "round-robin" (fun ctx ->
            dual (ctx.compiled_trace Pipeline.Sched_round_robin));
        vs_single "local" (local_dual Fun.id) ];
    kind "globals" "global-register designation (native binary)"
      (List.map
         (fun (label, globals) ->
           vs_single label (fun ctx ->
               Machine.run_flat
                 { (Machine.dual_cluster ()) with
                   Machine.assignment = Assignment.create ~num_clusters:2 ~globals () }
                 (ctx.native_trace ())))
         [ ("no globals", []); ("sp only", [ Mcsim_isa.Reg.sp ]);
           ("sp+gp (paper)", [ Mcsim_isa.Reg.sp; Mcsim_isa.Reg.gp ]) ]);
    kind "dq"
      "single-cluster dispatch-queue size (cycles vs the 128-entry baseline)"
      (List.map
         (fun n ->
           vs_single (Printf.sprintf "%d entries" n) (fun ctx ->
               Machine.run_flat
                 { (Machine.single_cluster ()) with Machine.dq_entries = n }
                 (ctx.native_trace ())))
         [ 32; 64; 128; 256 ]);
    unroll;
    kind "queues" "dispatch-queue organization (single queue vs per-class queues)"
      (List.map
         (fun (label, split, entries) ->
           vs_single label
             (local_dual (fun c ->
                  { c with Machine.queue_split = split; dq_entries = entries })))
         [ ("unified 64 (paper)", Machine.Unified, 64);
           ("split 32/16/16 (R10000-style)", Machine.Per_class, 64);
           ("unified 32", Machine.Unified, 32);
           ("split 16/8/8", Machine.Per_class, 32) ]);
    kind "memory" "memory fetch latency (local scheduler, matched baselines)"
      (List.map
         (fun lat ->
           let label =
             Printf.sprintf "%d-cycle memory%s" lat (if lat = 16 then " (paper)" else "")
           in
           let cache = { Cache.default_config with Cache.miss_latency = lat } in
           ( label,
             fun ctx ->
               (* Rebase the comparison on a single-cluster machine with the same
                  memory so the sweep isolates the latency, not the baseline. *)
               let memory c = { c with Machine.icache = cache; dcache = cache } in
               let single =
                 Machine.run_flat (memory (Machine.single_cluster ())) (ctx.native_trace ())
               in
               point_of ~single_cycles:single.Machine.cycles label
                 (local_dual memory ctx) ))
         [ 4; 8; 16; 32; 64 ]);
    kind "mshrs" "data-cache miss-handling entries (Farkas & Jouppi, ISCA'94)"
      (List.map
         (fun (label, mshrs) ->
           vs_single label
             (local_dual (fun c ->
                  { c with Machine.dcache = { Cache.default_config with Cache.mshrs } })))
         [ ("1 MSHR (blocking-ish)", Some 1); ("2 MSHRs", Some 2); ("4 MSHRs", Some 4);
           ("8 MSHRs", Some 8); ("inverted MSHR (paper)", None) ]) ]

(* Every sweep fans its points out through here, on
   {!Checkpoint.map}: one durable unit per point, keyed by label. The
   checkpoint identity is the sweep name, benchmark, trace budget and
   exact label set (the labels encode the swept parameter values), plus
   the mcsim version via the manifest — anything else that could change
   a point's value changes one of those. *)
let run_on ?(jobs = Pool.default_jobs ()) ?retries ?inject_fault ?checkpoint ctx kind =
  let store =
    Option.map
      (fun dir ->
        let manifest =
          Mcsim_obs.Manifest.make ~benchmark:ctx.bench_name ~trace_instrs:ctx.max_instrs
            (Machine.dual_cluster ())
        in
        let extra =
          [ ("sweep", Json.String kind.title);
            ("labels", Json.List (List.map (fun (l, _) -> Json.String l) kind.labelled)) ]
        in
        Checkpoint.open_ ~dir ~kind:"ablation" ~manifest ~extra ())
      checkpoint
  in
  { sweep_name = kind.title;
    benchmark = ctx.bench_name;
    points =
      Checkpoint.map ?retries ?inject_fault ~jobs store ~key:fst ~encode:point_json
        ~decode:(fun _ -> point_of_json)
        (fun (_, point) -> point ctx)
        kind.labelled }

let run ?jobs ?(max_instrs = 60_000) ?retries ?inject_fault ?checkpoint kind bench =
  run_on ?jobs ?retries ?inject_fault ?checkpoint
    (ctx_of ~max_instrs ~bench_name:(Spec92.name bench) (Spec92.program bench))
    kind

(* A hand-written streaming kernel whose iterations are fully independent
   (only the trivial induction variable is loop-carried): the code shape
   the paper's unrolling proposal assumes - each unrolled iteration can be
   scheduled onto its own cluster, and the split strided streams model the
   duplicated address calculations. *)
let stream_kernel ~trip =
  let module Il = Mcsim_ir.Il in
  let module Builder = Mcsim_ir.Program.Builder in
  let module Op = Mcsim_isa.Op_class in
  let b = Builder.create ~name:"stream" in
  let sp = Builder.sp b in
  let fp n = Builder.fresh_lr b ~name:n Il.Bank_fp in
  let t1 = fp "t1" and t2 = fp "t2" and t3 = fp "t3" and t4 = fp "t4" in
  let t5 = fp "t5" and t6 = fp "t6" and t7 = fp "t7" in
  let i = Builder.fresh_lr b ~name:"i" Il.Bank_int in
  let stride base = Mcsim_ir.Mem_stream.Stride { base; stride = 8; count = 4096 } in
  let exit_blk = Builder.add_block b [] Il.Halt in
  let body = Builder.reserve_block b in
  Builder.define_block b body
    [ Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst:t1 ~mem:(stride 0x10000) ();
      Il.instr ~op:Op.Load ~srcs:[ sp ] ~dst:t2 ~mem:(stride 0x40000) ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t1; t2 ] ~dst:t3 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t1; t1 ] ~dst:t4 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t3; t4 ] ~dst:t5 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t2; t3 ] ~dst:t6 ();
      Il.instr ~op:Op.Fp_other ~srcs:[ t5; t6 ] ~dst:t7 ();
      Il.instr ~op:Op.Store ~srcs:[ t7; sp ] ~mem:(stride 0x70000) ();
      Il.instr ~op:Op.Int_other ~srcs:[ i; i ] ~dst:i () ]
    (Il.Cond { src = Some i; model = Mcsim_ir.Branch_model.Loop { trip };
               taken = body; not_taken = exit_blk });
  let entry =
    Builder.add_block b
      [ Il.instr ~op:Op.Int_other ~srcs:[] ~dst:i () ]
      (Il.Jump body)
  in
  Builder.finish b ~entry

let unrolling_kernel ?jobs ?(max_instrs = 40_000) ?retries ?inject_fault ?checkpoint () =
  run_on ?jobs ?retries ?inject_fault ?checkpoint
    (ctx_of ~max_instrs ~bench_name:"stream" (stream_kernel ~trip:20_000))
    { unroll with title = "loop unrolling on an unroll-friendly streaming kernel" }

let render s =
  let header = [ "point"; "cycles"; "vs single"; "replays"; "dual-dist" ] in
  let body =
    List.map
      (fun p ->
        [ p.label; string_of_int p.dual_cycles; Printf.sprintf "%+.1f%%" p.speedup_pct;
          string_of_int p.replays; string_of_int p.dual_distributed ])
      s.points
  in
  Printf.sprintf "%s - %s\n%s" s.benchmark s.sweep_name
    (Mcsim_util.Text_table.render
       ~aligns:[| Mcsim_util.Text_table.Left; Right; Right; Right; Right |]
       (header :: body))

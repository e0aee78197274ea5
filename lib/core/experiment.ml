module Machine = Mcsim_cluster.Machine
module Flat_trace = Mcsim_isa.Flat_trace
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Pool = Mcsim_util.Pool
module Sampling = Mcsim_sampling.Sampling
module Spec92 = Mcsim_workload.Spec92

type run = {
  scheduler : string;
  dual : Machine.result;
  speedup_pct : float;
  static_single : int;
  static_dual : int;
  spills : int;
}

type comparison = {
  benchmark : string;
  trace_instrs : int;
  single : Machine.result;
  runs : run list;
}

let default_schedulers =
  [ ("none", Pipeline.Sched_none); ("local", Pipeline.default_local) ]

(* Per-benchmark preparation shared by all of that benchmark's
   simulations: the profile, the native (cluster-oblivious) binary and
   its committed trace. Everything here is a pure function of
   (program, seed), so recomputing it would be value-identical — it is
   shared only to avoid repeating the work. *)
type prep = {
  p_prog : Mcsim_ir.Program.t;
  p_profile : Mcsim_ir.Profile.t;
  p_native : Pipeline.compiled;
  p_native_trace : Flat_trace.t;
}

(* Cache identity of a scheduler, parameters included ([scheduler_name]
   alone would alias differently-tuned local/random schedulers). *)
let scheduler_ident = function
  | Pipeline.Sched_none -> "none"
  | Pipeline.Sched_local { imbalance_threshold; window } ->
    Printf.sprintf "local:%d:%d" imbalance_threshold window
  | Pipeline.Sched_round_robin -> "round_robin"
  | Pipeline.Sched_random s -> Printf.sprintf "random:%d" s

(* The target cluster count changes the compiled binary (partitioning
   and residue-class register assignment), hence the trace. Non-default
   counts get their own trace-store keys; the historical 2-cluster keys
   are unchanged. *)
let scheduler_ident_n ~clusters scheduler =
  if clusters = 2 then scheduler_ident scheduler
  else Printf.sprintf "%s@%dcl" (scheduler_ident scheduler) clusters

let trace_key ~clusters ~seed ~max_instrs ~benchmark scheduler =
  { Trace_store.benchmark;
    scheduler = scheduler_ident_n ~clusters scheduler;
    seed;
    max_instrs }

(* The committed trace of the binary [compile] produces: from the trace
   store when present there, otherwise walked (and saved). Keyed by
   benchmark name — the store assumes a name identifies one program. *)
let trace store ~clusters ~seed ~max_instrs ~benchmark scheduler compile =
  let walk () = Walker.trace_flat ~seed ~max_instrs (compile ()).Pipeline.mach in
  match store with
  | None -> walk ()
  | Some store ->
    fst
      (Trace_store.load_or_build store
         (trace_key ~clusters ~seed ~max_instrs ~benchmark scheduler)
         walk)

let make_prep ?trace_store ~clusters ~seed ~max_instrs prog =
  let profile = Walker.profile ~seed prog in
  let native = Pipeline.compile ~clusters ~profile ~scheduler:Pipeline.Sched_none prog in
  let native_trace =
    trace trace_store ~clusters ~seed ~max_instrs ~benchmark:prog.Mcsim_ir.Program.name
      Pipeline.Sched_none (fun () -> native)
  in
  { p_prog = prog; p_profile = profile; p_native = native; p_native_trace = native_trace }

(* One independent simulation: a benchmark's native binary on the
   single-cluster machine, or one (scheduler, dual-config) run. *)
type sim = Sim_single of int | Sim_sched of int * (string * Pipeline.scheduler)

type sim_out =
  | Out_single of Machine.result
  | Out_sched of {
      name : string;
      dual : Machine.result;
      static_single : int;
      static_dual : int;
      spills : int;
    }

(* One machine simulation: the full detailed model, or — when a sampling
   policy is given — the sampled estimate standing in for it. *)
let simulate ~engine ~sampling cfg trace =
  match sampling with
  | None -> Machine.run_flat ?engine cfg trace
  | Some policy -> Sampling.estimate (Sampling.run_flat ?engine ~policy cfg trace)

let run_sim ~clusters ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config
    ~trace_store prep = function
  | Sim_single i ->
    Out_single (simulate ~engine ~sampling single_config (prep i).p_native_trace)
  | Sim_sched (i, (name, scheduler)) ->
    let prep = prep i in
    let compiled, trace =
      match scheduler with
      | Pipeline.Sched_none -> (prep.p_native, prep.p_native_trace)
      | Pipeline.Sched_local _ | Pipeline.Sched_round_robin | Pipeline.Sched_random _ ->
        let c = Pipeline.compile ~clusters ~profile:prep.p_profile ~scheduler prep.p_prog in
        ( c,
          trace trace_store ~clusters ~seed ~max_instrs
            ~benchmark:prep.p_prog.Mcsim_ir.Program.name scheduler (fun () -> c) )
    in
    let dual = simulate ~engine ~sampling dual_config trace in
    let static_single, static_dual =
      Pipeline.dual_distribution_count dual_config.Machine.assignment compiled.Pipeline.mach
    in
    Out_sched
      { name;
        dual;
        static_single;
        static_dual;
        spills = List.length compiled.Pipeline.alloc.Mcsim_compiler.Regalloc.spilled_lrs }

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

module Json = Mcsim_obs.Json

let ( let* ) = Option.bind

(* One durable unit per simulation, plus a per-benchmark meta record for
   the value the preparation contributes to the output (the committed
   trace length). *)
let key_meta name = name ^ "/meta"
let key_single name = name ^ "/single"
let key_sched name sname = name ^ "/sched/" ^ sname

let open_store ~dir ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config progs =
  let manifest =
    Mcsim_obs.Manifest.make ?engine ~seed ?sampling
      ~benchmark:
        (String.concat "," (List.map (fun p -> p.Mcsim_ir.Program.name) progs))
      ~trace_instrs:max_instrs dual_config
  in
  (* The manifest pins the dual config, seed, engine, sampling policy and
     trace budget; everything else that changes the rows goes in here. *)
  let extra =
    [ ("single_config", Json.String (Mcsim_obs.Manifest.config_description single_config));
      ("schedulers", Json.List (List.map (fun (n, _) -> Json.String n) default_schedulers));
      ("sampling_seed",
       match sampling with
       | Some p -> Json.Int p.Sampling.seed
       | None -> Json.Null) ]
  in
  Checkpoint.open_ ~dir ~kind:"experiment" ~manifest ~extra ()

let sim_bench = function Sim_single i | Sim_sched (i, _) -> i

let sim_key names = function
  | Sim_single i -> key_single names.(i)
  | Sim_sched (i, (sname, _)) -> key_sched names.(i) sname

let out_fields = function
  | Out_single r -> Checkpoint.result_fields r
  | Out_sched { dual; static_single; static_dual; spills; _ } ->
    Checkpoint.result_fields dual
    @ [ ("static_single", Json.Int static_single);
        ("static_dual", Json.Int static_dual);
        ("spills", Json.Int spills) ]

let out_of_fields spec d =
  match spec with
  | Sim_single _ ->
    let* r = Checkpoint.result_of_fields d in
    Some (Out_single r)
  | Sim_sched (_, (sname, _)) ->
    let* dual = Checkpoint.result_of_fields d in
    let int k = Option.bind (Json.member k d) Json.get_int in
    let* static_single = int "static_single" in
    let* static_dual = int "static_dual" in
    let* spills = int "spills" in
    Some (Out_sched { name = sname; dual; static_single; static_dual; spills })

(* A benchmark's row from its unit outputs: the single-cluster baseline
   first, then one dual run per scheduler. *)
let comparison_of ~benchmark ~trace_instrs = function
  | Out_single single :: sched_outs ->
    let run = function
      | Out_sched { name; dual; static_single; static_dual; spills } ->
        { scheduler = name;
          dual;
          speedup_pct =
            Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
              ~dual_cycles:dual.Machine.cycles;
          static_single;
          static_dual;
          spills }
      | Out_single _ -> assert false
    in
    { benchmark; trace_instrs; single; runs = List.map run sched_outs }
  | Out_sched _ :: _ | [] -> assert false

(* ------------------------------------------------------------------ *)
(* The fan-out core                                                    *)
(* ------------------------------------------------------------------ *)

(* Durable fan-out: failure degrades to a per-benchmark [Failed]
   instead of aborting the sweep, and with [checkpoint] every completed
   unit is stored and never recomputed. *)
let run_many_status ?(jobs = Pool.default_jobs ()) ?(max_instrs = 120_000) ?(seed = 1)
    ?engine ?sampling ?single_config ?dual_config ?(retries = 0) ?inject_fault ?checkpoint
    ?trace_cache progs =
  let single_config =
    match single_config with Some c -> c | None -> Machine.single_cluster ()
  in
  let dual_config = match dual_config with Some c -> c | None -> Machine.dual_cluster () in
  (* Binaries are scheduled for the partitioned machine they run on. *)
  let clusters = Mcsim_cluster.Assignment.num_clusters dual_config.Machine.assignment in
  let trace_store = Option.map (fun dir -> Trace_store.open_ ~dir) trace_cache in
  let ck =
    Option.map
      (fun dir ->
        open_store ~dir ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config
          progs)
      checkpoint
  in
  let names = Array.of_list (List.map (fun p -> p.Mcsim_ir.Program.name) progs) in
  (* A benchmark's preparation is made by the first of its units that
     runs and shared by the rest; a fully recorded benchmark never
     makes it. *)
  let preps =
    Array.map
      (fun prog ->
        Pool.once (fun () -> make_prep ?trace_store ~clusters ~seed ~max_instrs prog))
      (Array.of_list progs)
  in
  (* Stage 1: the per-benchmark meta records (the committed trace
     length), one job per benchmark that lacks one. *)
  let metas =
    let stores, unit = Checkpoint.stores ck ~key:(fun i -> key_meta names.(i)) in
    Checkpoint.fill ~retries ?inject_fault ~jobs
      (fun i -> Flat_trace.length (preps.(i) ()).p_native_trace)
      (Checkpoint.lookup stores ~unit
         ~encode:(fun n -> [ ("trace_instrs", Json.Int n) ])
         ~decode:(fun _ d -> Option.bind (Json.member "trace_instrs" d) Json.get_int)
         (List.init (Array.length names) Fun.id))
    |> Array.of_list
  in
  let prepared i = match metas.(i) with Pool.Done _ -> true | Pool.Failed _ -> false in
  (* Stage 2: every still-missing (benchmark x scheduler x machine-config)
     simulation is its own job, for benchmarks whose meta record
     succeeded. Job order fixes result order; which domain runs which
     job is irrelevant because jobs share nothing mutable. *)
  let sims =
    let stores, unit = Checkpoint.stores ck ~key:(sim_key names) in
    Checkpoint.lookup stores ~unit ~encode:out_fields ~decode:out_of_fields
      (List.concat
         (List.mapi
            (fun i _ ->
              if prepared i then
                Sim_single i :: List.map (fun s -> Sim_sched (i, s)) default_schedulers
              else [])
            progs))
  in
  let outs =
    List.combine (List.map fst sims.cached)
      (Checkpoint.fill ~retries ?inject_fault ~jobs
         (run_sim ~clusters ~seed ~max_instrs ~engine ~sampling ~single_config ~dual_config
            ~trace_store (fun i -> preps.(i) ()))
         sims)
  in
  List.mapi
    (fun i benchmark ->
      match metas.(i) with
      | Pool.Failed f -> Pool.Failed f
      | Pool.Done trace_instrs -> (
        let statuses =
          List.filter_map (fun (spec, st) -> if sim_bench spec = i then Some st else None) outs
        in
        match
          List.find_map (function Pool.Failed f -> Some f | Pool.Done _ -> None) statuses
        with
        | Some f -> Pool.Failed f
        | None -> Pool.Done (comparison_of ~benchmark ~trace_instrs (Pool.values statuses))))
    (Array.to_list names)

(* As if the sweep had run serially: the first failing benchmark's
   exception propagates with its original backtrace. *)
let run_many ?jobs ?max_instrs ?seed ?sampling progs =
  Pool.values (run_many_status ?jobs ?max_instrs ?seed ?sampling progs)

(* ------------------------------------------------------------------ *)
(* Cell matrices                                                       *)
(* ------------------------------------------------------------------ *)

let run_cells ?(jobs = Pool.default_jobs ()) ?retries ?inject_fault ?checkpoint ~kind
    ~config ~extra ~seed ~max_instrs ~key ~cell benchmarks points =
  let store =
    Option.map
      (fun dir ->
        let manifest =
          Mcsim_obs.Manifest.make ~seed
            ~benchmark:(String.concat "," (List.map Spec92.name benchmarks))
            ~trace_instrs:max_instrs config
        in
        Checkpoint.open_ ~dir ~kind ~manifest ~extra ())
      checkpoint
  in
  (* One job per missing cell; a benchmark's program and profile are
     made by the first of its cells that runs and shared by the rest.
     Each cell compiles, traces and simulates independently from that
     immutable profile, so the rows are the same for every [jobs]. *)
  let cells =
    List.concat_map
      (fun b ->
        let prep =
          Pool.once (fun () ->
              let prog = Spec92.program b in
              (prog, Walker.profile ~seed prog))
        in
        List.map (fun p -> (b, prep, p)) points)
      benchmarks
  in
  let outs =
    Checkpoint.map ?retries ?inject_fault ~jobs store
      ~key:(fun (b, _, p) -> Spec92.name b ^ "/" ^ key p)
      ~encode:Checkpoint.result_fields
      ~decode:(fun _ -> Checkpoint.result_of_fields)
      (fun (_, prep, p) ->
        let prog, profile = prep () in
        let clusters, scheduler, cfg = cell p in
        Machine.run_flat cfg
          (trace None ~clusters ~seed ~max_instrs ~benchmark:prog.Mcsim_ir.Program.name
             scheduler (fun () -> Pipeline.compile ~clusters ~profile ~scheduler prog)))
      cells
  in
  let n = List.length points in
  List.mapi (fun i _ -> List.filteri (fun j _ -> j / n = i) outs) benchmarks

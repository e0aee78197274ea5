(* What the three workloads share: sizes, the seed family, output
   checks against the expected values in mcbench/expected.json, the
   scratch directory and the host measurements. *)

module Stat = Mcbench.Stat
module Span = Mcbench.Span
module Json = Mcsim_obs.Json
module Metrics = Mcsim_obs.Metrics
module Machine = Mcsim_cluster.Machine
module Spec92 = Mcsim_workload.Spec92
module Pipeline = Mcsim_compiler.Pipeline
module Walker = Mcsim_trace.Walker
module Sampling = Mcsim_sampling.Sampling

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

(* detail: long enough for four sampling units of the default policy. *)
let detail_instrs = 100_000

(* sweep: the short Table-2 trace of a quick `mcsim table2`, and a
   steer matrix small enough that its 8-cluster cells stay cheap. *)
let table2_instrs = 20_000
let steer_instrs = 4_000
let sweep_jobs = 2

(* serve: working-set Run units, Sample units, and fresh Run units. *)
let serve_run_instrs = 5_000
let serve_sample_instrs = 20_000

let serve_policy =
  { Sampling.interval = 5_000; warmup = 500; detail = 1_000; seed = 1 }

(* The percentile request_tail_ms reads on each workload: one that
   falls inside a class of requests rather than between two (see
   mcbench/README.md). *)
let detail_tail = 90.0
let sweep_tail = 90.0
let serve_tail = 95.0

(* Set-ups per run; setup_s is their median. *)
let setups = 5

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

(* The benchmark's --seed picks walker seeds from a family of [family]
   seeds, so that every input a run can see has expected values on
   file. *)
let family = 16

let walker_seed s = 1 + (((s mod family) + family) mod family)

(* The walker seed of the fixed reference corpus the accuracy metrics
   are computed on — the repository's default seed. *)
let reference_seed = 1

(* Fresh serve units: Run units of these walker seeds, none of which
   belongs to the family. *)
let fresh_seeds = List.init 200 (fun i -> 1001 + i)

let ring4 () =
  { (Machine.config_for_clusters ~topology:Mcsim_cluster.Interconnect.Ring 4) with
    Machine.steering = Mcsim_cluster.Steering.Dependence }

(* ------------------------------------------------------------------ *)
(* Result summaries: what is compared against the expected values      *)
(* ------------------------------------------------------------------ *)

let md5 j = Digest.to_hex (Digest.string (Json.to_string ~minify:true j))

let result_summary (r : Machine.result) =
  Json.Obj
    [ ("cycles", Json.Int r.Machine.cycles);
      ("retired", Json.Int r.Machine.retired);
      ("replays", Json.Int r.Machine.replays);
      ("dual_distributed", Json.Int r.Machine.dual_distributed);
      ("md5", Json.String (md5 (Metrics.result_json r))) ]

let sampled_summary (s : Sampling.t) =
  Json.Obj
    [ ("est_cycles", Json.Int s.Sampling.est_cycles);
      ("mean_ipc", Json.Float s.Sampling.mean_ipc);
      ("detailed_instrs", Json.Int s.Sampling.detailed_instrs);
      ("md5", Json.String (md5 (Metrics.sampling_json s))) ]

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Every operation a run attempts, and the ones that failed or whose
   output did not match, each counted once. Operations do not nest. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  mutable in_op : bool;  (** an operation is in progress *)
  mutable op_failed : bool;  (** and has failed *)
}

let tally = { attempted = 0; failed = 0; first_error = None; in_op = false; op_failed = false }

let note_error msg = if tally.first_error = None then tally.first_error <- Some msg

(* A check inside an attempted operation: a mismatch fails the
   operation. Outside one, the check is an operation of its own. *)
let check what ok =
  if not ok then begin
    note_error (what ^ ": output mismatch");
    if tally.in_op then tally.op_failed <- true
    else begin
      tally.attempted <- tally.attempted + 1;
      tally.failed <- tally.failed + 1
    end
  end

(* One operation: counted as attempted, and once as failed when it
   raises or any of its checks fail. Returns [None] on a raise. *)
let attempt what f =
  tally.attempted <- tally.attempted + 1;
  tally.in_op <- true;
  tally.op_failed <- false;
  let r =
    match f () with
    | v -> Some v
    | exception e ->
      note_error (Printf.sprintf "%s: %s" what (Printexc.to_string e));
      tally.op_failed <- true;
      None
  in
  tally.in_op <- false;
  if tally.op_failed then tally.failed <- tally.failed + 1;
  r

(* ------------------------------------------------------------------ *)
(* Expected values                                                     *)
(* ------------------------------------------------------------------ *)

let expected_path = "mcbench/expected.json"

let expected =
  lazy
    (match Json.of_string (In_channel.with_open_bin expected_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (expected_path ^ ": " ^ e))

let expect path =
  match Json.path path (Lazy.force expected) with
  | Some j -> j
  | None -> failwith ("no expected value for " ^ String.concat "/" path)

let check_expected what path got = check what (expect path = got)

(* ------------------------------------------------------------------ *)
(* Scratch space, inside the checkout                                  *)
(* ------------------------------------------------------------------ *)

let scratch_root = "_mcbench"

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let counter = ref 0

(* A fresh, empty directory under the scratch root. *)
let fresh_dir name =
  incr counter;
  let d = Filename.concat scratch_root (Printf.sprintf "%s-%d" name !counter) in
  remove_tree d;
  Unix.mkdir d 0o755;
  d

let reset_scratch () =
  remove_tree scratch_root;
  Unix.mkdir scratch_root 0o755

(* ------------------------------------------------------------------ *)
(* Host measurements                                                   *)
(* ------------------------------------------------------------------ *)

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l ->
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          else go ()
      in
      go ())

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* One round of a timed phase: its wall, the (class, latency in s) of
   each of its requests, the units it completed and the detailed-model
   instructions it simulated. Requests of one class do the same work. *)
type round = { wall : float; requests : (string * float) list; units : int; instrs : int }

(* What a timed run measured: every set-up, every round, and the
   percentile of request latency it reports as its tail. *)
type phase = { setup_s : float list; rounds : round list; tail_pct : float }

(* The timed phase: [round i] for i = 0, 1, ... until [seconds] have
   passed and enough requests are in for a [tail_pct] tail with ten
   samples beyond, or until [round] has no more work ([None]). [round]
   returns its requests, units and instructions. *)
let timed_phase ~seconds ~tail_pct round =
  let min_requests = int_of_float (Float.ceil (1000.0 /. (100.0 -. tail_pct))) in
  let t0 = now () in
  let rec go i acc n =
    if acc <> [] && n >= min_requests && now () -. t0 >= seconds then List.rev acc
    else
      match timed (fun () -> round i) with
      | None, _ -> List.rev acc
      | Some (requests, units, instrs), wall ->
        go (i + 1) ({ wall; requests; units; instrs } :: acc) (n + List.length requests)
  in
  go 0 [] 0

(* ------------------------------------------------------------------ *)
(* The trace a workload runs: profile, compile, walk                   *)
(* ------------------------------------------------------------------ *)

let compile ?(clusters = 2) ~seed ~scheduler b =
  let prog = Spec92.program b in
  let profile = Walker.profile ~seed prog in
  Pipeline.compile ~clusters ~profile ~scheduler prog

let trace ?clusters ~seed ~max_instrs ~scheduler b =
  Walker.trace_flat ~seed ~max_instrs (compile ?clusters ~seed ~scheduler b).Pipeline.mach

(* Pipeline.compile pass by pass, so a traced run can time each pass. *)
let compile_passes sp ~clusters ~profile ~scheduler prog =
  let open Mcsim_compiler in
  let prog = Span.record sp "compiler.list_scheduler" (fun () -> List_scheduler.schedule prog) in
  let partition =
    match scheduler with
    | Pipeline.Sched_local { imbalance_threshold; window } ->
      Span.record sp "compiler.local_scheduler" (fun () ->
          Local_scheduler.partition ~clusters ~imbalance_threshold ~window prog profile)
    | Pipeline.Sched_none ->
      Span.record sp "compiler.partition" (fun () -> Partition.none ~clusters prog)
    | Pipeline.Sched_round_robin | Pipeline.Sched_random _ ->
      invalid_arg "compile_passes: scheduler not used by the benchmark"
  in
  let alloc =
    Span.record sp "compiler.regalloc" (fun () -> Regalloc.allocate ~profile prog partition)
  in
  let mach = Span.record sp "compiler.lowering" (fun () -> Lowering.lower alloc) in
  { Pipeline.mach; alloc; scheduler }

(* ------------------------------------------------------------------ *)
(* Model accuracy on the reference corpus                              *)
(* ------------------------------------------------------------------ *)

(* The two simulated accuracy figures, on the fixed reference corpus so
   that they repeat exactly from run to run (they move only when the
   model does): the largest sampled-vs-full IPC error over the six
   detail traces, and the mean |mcsim - paper| Table-2 speedup. *)
let accuracy () =
  let seed = reference_seed in
  let key = string_of_int seed in
  let errs =
    List.filter_map
      (fun b ->
        let name = Spec92.name b in
        attempt ("accuracy " ^ name) (fun () ->
            let tr =
              trace ~seed ~max_instrs:detail_instrs ~scheduler:Pipeline.default_local b
            in
            let full = Machine.run_flat (Machine.dual_cluster ()) tr in
            let s = Sampling.run_flat (Machine.dual_cluster ()) tr in
            check_expected ("accuracy full " ^ name) [ "detail"; key; name; "dual" ]
              (result_summary full);
            check_expected ("accuracy sampled " ^ name) [ "detail"; key; name; "sampled" ]
              (sampled_summary s);
            100.0 *. Float.abs (s.Sampling.mean_ipc -. full.Machine.ipc) /. full.Machine.ipc))
      Spec92.all
  in
  let table2 =
    attempt "accuracy table2" (fun () ->
        let rows = Mcsim.Table2.run ~jobs:1 ~max_instrs:table2_instrs ~seed () in
        check_expected "accuracy table2" [ "sweep"; key; "rows" ]
          (Json.List (List.map Mcsim.Table2.row_json rows));
        Stat.mean
          (List.concat_map
             (fun (r : Mcsim.Table2.row) ->
               let _, none, local =
                 List.find (fun (n, _, _) -> n = r.Mcsim.Table2.benchmark) Mcsim.Table2.paper
               in
               [ Float.abs (r.Mcsim.Table2.none_pct -. none);
                 Float.abs (r.Mcsim.Table2.local_pct -. local) ])
             rows))
  in
  (List.fold_left Float.max 0.0 errs, Option.value ~default:nan table2)

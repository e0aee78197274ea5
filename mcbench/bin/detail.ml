(* detail: the `mcsim run/steer/sample --trace-cache` path. For each of
   the six benchmarks, map the local-scheduled trace from a trace store
   built during set-up and run the dual-cluster machine, the 4-cluster
   ring machine with dependence steering (on the 4-cluster binary) and
   the sampled estimate on it. The front end is bypassed, so the
   simulator's hot path is nearly all the work. *)

open Bench
module Trace_store = Mcsim.Trace_store

let scheduler = Pipeline.default_local

let key ~seed ~clusters b =
  { Trace_store.benchmark = Spec92.name b;
    scheduler = Mcsim.Experiment.scheduler_ident_n ~clusters scheduler;
    seed;
    max_instrs = detail_instrs }

(* Set-up: profile, compile (2 and 4 clusters), walk and save every
   trace into a fresh store. *)
let walked = ref 0

let setup sp ~seed =
  let store = Trace_store.open_ ~dir:(fresh_dir "detail-traces") in
  List.iter
    (fun b ->
      ignore
        (attempt ("build traces " ^ Spec92.name b) (fun () ->
             let prog = Span.record sp "workload.gen" (fun () -> Spec92.program b) in
             let profile =
               Span.record sp "walker.profile" (fun () -> Walker.profile ~seed prog)
             in
             List.iter
               (fun clusters ->
                 let c = compile_passes sp ~clusters ~profile ~scheduler prog in
                 let tr =
                   Span.record sp "walker.walk" (fun () ->
                       Walker.trace_flat ~seed ~max_instrs:detail_instrs c.Pipeline.mach)
                 in
                 walked := !walked + Mcsim_isa.Flat_trace.length tr;
                 Span.record sp "trace_store.save" (fun () ->
                     Trace_store.save store (key ~seed ~clusters b) tr))
               [ 2; 4 ])))
    Spec92.all;
  store

(* What one round observed, for the traced run's per-layer figures. *)
type obs = {
  mutable dual : Machine.result list;
  mutable ring : Machine.result list;
  mutable sampled : Sampling.t list;
  mutable machine_words : float;  (** minor words allocated inside Machine.run_flat *)
}

let find sp store k =
  match Span.record sp "trace_store.find" (fun () -> Trace_store.find store k) with
  | Some t -> t
  | None -> failwith "trace missing from the store"

let machine sp obs cfg tr =
  let w0 = Gc.minor_words () in
  let r = Span.record sp "machine.run" (fun () -> Machine.run_flat cfg tr) in
  obs.machine_words <- obs.machine_words +. (Gc.minor_words () -. w0);
  r

(* One round: three simulation requests per benchmark. Returns the
   request latencies (s) and the detailed-model instructions
   simulated. *)
let round sp store ~seed obs =
  let s = string_of_int seed in
  let lat = ref [] and instrs = ref 0 in
  let request name f =
    let t0 = now () in
    match attempt name f with
    | Some n ->
      lat := (name, now () -. t0) :: !lat;
      instrs := !instrs + n
    | None -> ()
  in
  Span.record sp "mcbench.detail.round" (fun () ->
      List.iter
        (fun b ->
          let name = Spec92.name b in
          request ("dual " ^ name) (fun () ->
              let tr = find sp store (key ~seed ~clusters:2 b) in
              let r = machine sp obs (Machine.dual_cluster ()) tr in
              check_expected ("dual " ^ name) [ "detail"; s; name; "dual" ] (result_summary r);
              obs.dual <- r :: obs.dual;
              r.Machine.retired);
          request ("ring4 " ^ name) (fun () ->
              let r = machine sp obs (ring4 ()) (find sp store (key ~seed ~clusters:4 b)) in
              check_expected ("ring4 " ^ name) [ "detail"; s; name; "ring4" ] (result_summary r);
              obs.ring <- r :: obs.ring;
              r.Machine.retired);
          request ("sample " ^ name) (fun () ->
              let tr = find sp store (key ~seed ~clusters:2 b) in
              let r =
                Span.record sp "sampling.run" (fun () ->
                    Sampling.run_flat (Machine.dual_cluster ()) tr)
              in
              check_expected ("sample " ^ name) [ "detail"; s; name; "sampled" ]
                (sampled_summary r);
              obs.sampled <- r :: obs.sampled;
              r.Sampling.detailed_instrs))
        Spec92.all);
  (List.rev !lat, !instrs)

let new_obs () = { dual = []; ring = []; sampled = []; machine_words = 0.0 }

let run_timed ~seed ~seconds =
  let seed = walker_seed seed in
  let off = Span.create ~enabled:false () in
  let store = ref None in
  let setup_s =
    List.init setups (fun _ ->
        let st, t = timed (fun () -> setup off ~seed) in
        store := Some st;
        t)
  in
  let store = Option.get !store in
  let rounds =
    timed_phase ~seconds ~tail_pct:detail_tail (fun _ ->
        let l, n = round off store ~seed (new_obs ()) in
        Some (l, List.length l, n))
  in
  { setup_s; rounds; tail_pct = detail_tail }

(* The traced run: set-up and one round with spans, one round without
   for the overhead, plus the machine's own profile counters and the
   scan-vs-wakeup ratio. *)
let run_traced sp ~seed =
  let seed = walker_seed seed in
  Span.set_enabled sp true;
  walked := 0;
  let store = setup sp ~seed in
  Span.set_enabled sp false;
  let _, untraced = timed (fun () -> round sp store ~seed (new_obs ())) in
  let setup_spans = Span.spans sp in
  Span.clear sp;
  Span.set_enabled sp true;
  let obs = new_obs () in
  let _, traced = timed (fun () -> round sp store ~seed obs) in
  Span.set_enabled sp false;
  let round_spans = Span.spans sp in
  Span.clear sp;
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let machine_runs = obs.dual @ obs.ring in
  let cycles = isum (fun r -> r.Machine.cycles) machine_runs in
  let retired = isum (fun r -> r.Machine.retired) machine_runs in
  let machine_s = Span.total round_spans "machine.run" in
  (* The machine's per-stage counters, on every trace of the round. *)
  let p = Machine.profile_counters () in
  List.iter
    (fun b ->
      List.iter
        (fun (cfg, clusters) ->
          ignore (Machine.run_flat ~profile:p cfg (find sp store (key ~seed ~clusters b))))
        [ (Machine.dual_cluster (), 2); (ring4 (), 4) ])
    Spec92.all;
  let module P = Mcsim_util.Profile_counters in
  let dual_retired = isum (fun r -> r.Machine.retired) obs.dual in
  let stage name f =
    let rec go i =
      if i >= P.n_stages p then nan else if P.stage_name p i = name then f i else go (i + 1)
    in
    go 0
  in
  let per_cycle name =
    stage name (fun i -> float_of_int (P.work p i) /. float_of_int (P.cycles p))
  in
  let wpi name = stage name (fun i -> P.alloc p i /. float_of_int retired) in
  (* Scan vs wakeup host time on one trace: the existing engine gate. *)
  let one = find sp store (key ~seed ~clusters:2 Spec92.Gcc1) in
  let engine_s engine =
    snd (timed (fun () -> Machine.run_flat ~engine (Machine.dual_cluster ()) one))
  in
  let scan_s = engine_s `Scan in
  let wake_s = engine_s `Wakeup in
  let ring_ctr k = isum (fun r -> Machine.counter r k) obs.ring in
  let hits = ring_ctr "steer_hits" and fallbacks = ring_ctr "steer_fallbacks" in
  let sampled_instrs = isum (fun s -> s.Sampling.trace_instrs) obs.sampled in
  let sampling_s = Span.total round_spans "sampling.run" in
  let gen_s =
    sum Span.duration
      (List.filter
         (fun s ->
           List.mem s.Span.name
             [ "walker.profile"; "walker.walk"; "compiler.list_scheduler";
               "compiler.local_scheduler"; "compiler.regalloc"; "compiler.lowering" ])
         setup_spans)
  in
  let n_traces = 2 * List.length Spec92.all in
  let find_mean =
    Stat.mean
      (List.filter_map
         (fun s -> if s.Span.name = "trace_store.find" then Some (Span.duration s) else None)
         round_spans)
  in
  ( setup_spans @ round_spans,
    [ ("detail.unaccounted_frac", Span.unaccounted_frac round_spans, "frac");
      ("detail.trace_overhead_frac", (traced -. untraced) /. untraced, "frac");
      ( "walker.walk_minstr_per_s",
        float_of_int !walked /. Span.total setup_spans "walker.walk" /. 1e6,
        "Minstr/s" );
      ("trace_store.reload_speedup", gen_s /. float_of_int n_traces /. find_mean, "x");
      ("machine.busy_s", machine_s, "s");
      ("machine.ns_per_cycle", 1e9 *. machine_s /. float_of_int cycles, "ns");
      ("machine.words_per_instr", obs.machine_words /. float_of_int retired, "words");
      ("machine.issue.entries_per_cycle", per_cycle "issue", "count");
      ("machine.wake.entries_per_cycle", per_cycle "wake", "count");
      ("machine.fetch.words_per_instr", wpi "fetch", "words");
      ("machine.dispatch.words_per_instr", wpi "dispatch", "words");
      ("machine.issue.words_per_instr", wpi "issue", "words");
      ("machine.train.words_per_instr", wpi "train", "words");
      ("machine.scan_wakeup_ratio", scan_s /. wake_s, "x");
      ("machine.cycles", float_of_int (isum (fun r -> r.Machine.cycles) obs.dual), "count");
      ( "machine.ipc",
        float_of_int dual_retired /. float_of_int (isum (fun r -> r.Machine.cycles) obs.dual),
        "instr/cycle" );
      ("machine.replays", float_of_int (isum (fun r -> r.Machine.replays) obs.dual), "count");
      ( "machine.dual_distributed_frac",
        float_of_int (isum (fun r -> r.Machine.dual_distributed) obs.dual)
        /. float_of_int dual_retired,
        "frac" );
      ("steering.hit_frac", float_of_int hits /. float_of_int (hits + fallbacks), "frac");
      ("sampling.busy_s", sampling_s, "s");
      ( "sampling.detailed_frac",
        float_of_int (isum (fun s -> s.Sampling.detailed_instrs) obs.sampled)
        /. float_of_int sampled_instrs,
        "frac" );
      ("sampling.minstr_per_s", float_of_int sampled_instrs /. sampling_s /. 1e6, "Minstr/s") ] )

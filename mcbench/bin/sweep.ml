(* sweep: `mcsim table2 -j2` and `mcsim steer -j2`, cold and warm. Each
   round takes a walker seed from the run's seed and runs a cold
   Table-2 sweep over the six benchmarks with fresh trace and result
   stores, the same call against the now-warm stores, and one steer
   matrix for one benchmark with a fresh checkpoint, then again against
   the completed checkpoint. The profiling walk, the compiler passes,
   the trace walk, the Pool fan-out and both durable stores carry a far
   larger share here than in detail. *)

open Bench
module Table2 = Mcsim.Table2
module Steer = Mcsim.Steer
module Trace_store = Mcsim.Trace_store
module Result_store = Mcsim.Result_store
module Checkpoint = Mcsim.Checkpoint

(* One benchmark for every round, so that rounds differ only in their
   walker seed: gcc1, the paper's integer representative. *)
let steer_bench = Spec92.Gcc1

let table2 ~seed ~tc ~rc =
  Table2.run ~jobs:sweep_jobs ~max_instrs:table2_instrs ~seed ~trace_cache:tc ~result_cache:rc ()

let steer ~seed ~ck =
  Steer.run ~jobs:sweep_jobs ~max_instrs:steer_instrs ~seed ~benchmarks:[ steer_bench ]
    ~checkpoint:ck ()

let rows_json rows = Json.List (List.map Table2.row_json rows)

(* One round; returns the four request latencies (s) with the units
   each completed, and the round's nominal detailed instructions: what
   simulating every unit of the cold calls once takes, as recorded in
   mcbench/expected.json — not a count of what the calls did. *)
let round ~seed =
  let s = string_of_int seed in
  let tc = fresh_dir "trace-cache" and rc = fresh_dir "result-cache" in
  let ck = fresh_dir "steer-checkpoint" in
  let lat = ref [] in
  let request name units f =
    let t0 = now () in
    match attempt name f with
    | Some v ->
      lat := (name, now () -. t0, units) :: !lat;
      Some v
    | None -> None
  in
  let cold =
    request "table2 cold" 6 (fun () ->
        let rows = table2 ~seed ~tc ~rc in
        check_expected "table2 cold" [ "sweep"; s; "rows" ] (rows_json rows);
        rows)
  in
  ignore
    (request "table2 warm" 6 (fun () ->
         check "table2 warm equals cold" (Some (table2 ~seed ~tc ~rc) = cold)));
  let steer_cold =
    request "steer cold" 30 (fun () ->
        let rows = steer ~seed ~ck in
        check_expected "steer cold" [ "sweep"; s; "steer" ] (Steer.rows_json rows);
        rows)
  in
  ignore
    (request "steer warm" 30 (fun () ->
         check "steer warm equals cold" (Some (steer ~seed ~ck) = steer_cold)));
  List.iter remove_tree [ tc; rc; ck ];
  let instrs = Option.value ~default:0 (Json.get_int (expect [ "sweep"; s; "sim_instrs" ])) in
  (List.rev !lat, instrs)

let run_timed ~seed ~seconds =
  (* Set-up is one untimed warm-up round, so that the first -j2 call's
     one-time cost lands in setup_s rather than in wall_s. *)
  let setup_s =
    List.init setups (fun _ -> snd (timed (fun () -> round ~seed:(walker_seed seed))))
  in
  let rounds =
    timed_phase ~seconds ~tail_pct:sweep_tail (fun i ->
        let l, n = round ~seed:(walker_seed (seed + i)) in
        Some
          ( List.map (fun (c, t, _) -> (c, t)) l,
            List.fold_left (fun acc (_, _, u) -> acc + u) 0 l,
            n ))
  in
  { setup_s; rounds; tail_pct = sweep_tail }

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)
(* ------------------------------------------------------------------ *)

(* What the replay's compiles contribute to the exact compiler
   figures: spills, and static single/dual counts of local binaries. *)
type comp = {
  mutable spills : int;
  mutable static_single : int;
  mutable static_dual : int;
  mutable row_finds : int;
  mutable row_hits : int;
}

(* The round again, serially and unit by unit through the layer
   functions Table2.run and Steer.run call, so that their time can be
   split by layer. Checked against the rows the real calls produce. *)
let replay sp ~seed ~cold ~steer_cold comp =
  let tstore = Trace_store.open_ ~dir:(fresh_dir "replay-traces") in
  let rstore = Result_store.open_ ~dir:(fresh_dir "replay-results") in
  let ck = fresh_dir "replay-checkpoint" in
  let next_unit = ref 0 in
  let unit name f =
    incr next_unit;
    Span.set_unit sp !next_unit;
    Span.record sp name f
  in
  let compile ~clusters ~profile ~scheduler prog =
    let c = compile_passes sp ~clusters ~profile ~scheduler prog in
    comp.spills <- comp.spills + List.length c.Pipeline.alloc.Mcsim_compiler.Regalloc.spilled_lrs;
    c
  in
  let run cfg tr = Span.record sp "machine.run" (fun () -> Machine.run_flat cfg tr) in
  let flat_trace ~scheduler c b =
    let key =
      { Trace_store.benchmark = Spec92.name b;
        scheduler = Mcsim.Experiment.scheduler_ident scheduler;
        seed;
        max_instrs = table2_instrs }
    in
    match Span.record sp "trace_store.find" (fun () -> Trace_store.find tstore key) with
    | Some t -> t
    | None ->
      let t =
        Span.record sp "walker.walk" (fun () ->
            Walker.trace_flat ~seed ~max_instrs:table2_instrs c.Pipeline.mach)
      in
      Span.record sp "trace_store.save" (fun () -> Trace_store.save tstore key t);
      t
  in
  let row_unit b = Table2.row_store_unit ~max_instrs:table2_instrs ~seed b in
  let find_rows () =
    List.map
      (fun b ->
        let manifest, key = row_unit b in
        let found =
          Span.record sp "result_store.find" (fun () -> Result_store.find rstore ~manifest ~key)
        in
        comp.row_finds <- comp.row_finds + 1;
        if found <> None then comp.row_hits <- comp.row_hits + 1;
        found)
      Spec92.all
  in
  let dual = Machine.dual_cluster () in
  Span.record sp "mcbench.sweep.replay" (fun () ->
      let rows =
        Span.record sp "mcbench.table2.cold" (fun () ->
            ignore (find_rows ());
            List.map
              (fun b ->
                let prog, profile, native_tr =
                  unit "mcbench.table2.unit" (fun () ->
                      let prog = Span.record sp "workload.gen" (fun () -> Spec92.program b) in
                      let profile =
                        Span.record sp "walker.profile" (fun () -> Walker.profile ~seed prog)
                      in
                      let native =
                        compile ~clusters:2 ~profile ~scheduler:Pipeline.Sched_none prog
                      in
                      (prog, profile, flat_trace ~scheduler:Pipeline.Sched_none native b))
                in
                let single =
                  unit "mcbench.table2.unit" (fun () -> run (Machine.single_cluster ()) native_tr)
                in
                let none = unit "mcbench.table2.unit" (fun () -> run dual native_tr) in
                let local, local_c =
                  unit "mcbench.table2.unit" (fun () ->
                      let c = compile ~clusters:2 ~profile ~scheduler:Pipeline.default_local prog in
                      (run dual (flat_trace ~scheduler:Pipeline.default_local c b), c))
                in
                let s, d =
                  Pipeline.dual_distribution_count dual.Machine.assignment local_c.Pipeline.mach
                in
                comp.static_single <- comp.static_single + s;
                comp.static_dual <- comp.static_dual + d;
                let pct (r : Machine.result) =
                  Mcsim_timing.Net_performance.speedup_pct ~single_cycles:single.Machine.cycles
                    ~dual_cycles:r.Machine.cycles
                in
                let row =
                  { Table2.benchmark = Spec92.name b;
                    none_pct = pct none;
                    local_pct = pct local;
                    single_cycles = single.Machine.cycles;
                    none_cycles = none.Machine.cycles;
                    local_cycles = local.Machine.cycles;
                    none_replays = none.Machine.replays;
                    local_replays = local.Machine.replays }
                in
                let manifest, key = row_unit b in
                Span.record sp "result_store.record" (fun () ->
                    Result_store.record rstore ~manifest ~key [ ("row", Table2.row_json row) ]);
                row)
              Spec92.all)
      in
      check "replayed table2 rows" (rows = cold);
      let warm = Span.record sp "mcbench.table2.warm" find_rows in
      check "replayed warm table2 rows"
        (List.for_all2
           (fun r found ->
             Option.bind found (Json.member "row") = Some (Table2.row_json r))
           cold warm);
      let b = steer_bench in
      let open_checkpoint () =
        Span.record sp "checkpoint.open" (fun () ->
            Checkpoint.open_ ~dir:ck ~kind:"steer"
              ~manifest:(Mcsim_obs.Manifest.make ~seed ~benchmark:(Spec92.name b)
                           ~trace_instrs:steer_instrs dual)
              ())
      in
      let cell_key (sched, clusters, pol) =
        Printf.sprintf "%s/%s/%d/%s" (Spec92.name b) (Pipeline.scheduler_name sched) clusters
          (Mcsim_cluster.Steering.to_string pol)
      in
      let steer_prep () =
        unit "mcbench.steer.unit" (fun () ->
            let prog = Span.record sp "workload.gen" (fun () -> Spec92.program b) in
            (prog, Span.record sp "walker.profile" (fun () -> Walker.profile ~seed prog)))
      in
      let cycles =
        Span.record sp "mcbench.steer.cold" (fun () ->
            let store = open_checkpoint () in
            let prog, profile = steer_prep () in
            List.map
              (fun ((sched, clusters, pol) as cell) ->
                unit "mcbench.steer.unit" (fun () ->
                    ignore
                      (Span.record sp "checkpoint.find" (fun () ->
                           Checkpoint.find store (cell_key cell)));
                    let c = compile ~clusters ~profile ~scheduler:sched prog in
                    let tr =
                      Span.record sp "walker.walk" (fun () ->
                          Walker.trace ~seed ~max_instrs:steer_instrs c.Pipeline.mach)
                    in
                    let cfg =
                      { (Machine.config_for_clusters
                           ~topology:Mcsim_cluster.Interconnect.Point_to_point clusters)
                        with
                        Machine.steering = pol }
                    in
                    let r = Span.record sp "machine.run" (fun () -> Machine.run cfg tr) in
                    Span.record sp "checkpoint.record" (fun () ->
                        Checkpoint.record store ~key:(cell_key cell)
                          [ ("result", Metrics.result_json r) ]);
                    r.Machine.cycles))
              Steer.matrix_points)
      in
      let want =
        List.concat_map (fun r -> List.map (fun c -> c.Steer.cycles) r.Steer.cells) steer_cold
      in
      check "replayed steer cells" (cycles = want);
      Span.record sp "mcbench.steer.warm" (fun () ->
          ignore (steer_prep ());
          let found =
            Span.record sp "checkpoint.resume" (fun () ->
                let store = open_checkpoint () in
                List.map (fun cell -> Checkpoint.find store (cell_key cell)) Steer.matrix_points)
          in
          check "replayed steer resume" (List.for_all Option.is_some found)))

let run_traced sp ~seed =
  let seed = walker_seed seed in
  (* The real round first: its cold calls are the -j2 wall the pool's
     efficiency is measured against, and its rows are what the replay
     must reproduce. *)
  let tc = fresh_dir "trace-cache" and rc = fresh_dir "result-cache" in
  let ck = fresh_dir "steer-checkpoint" in
  let cold, t2_wall = timed (fun () -> table2 ~seed ~tc ~rc) in
  let steer_cold, steer_wall = timed (fun () -> steer ~seed ~ck) in
  let s = string_of_int seed in
  ignore
    (attempt "sweep traced real round" (fun () ->
         check_expected "table2 cold" [ "sweep"; s; "rows" ] (rows_json cold);
         check_expected "steer cold" [ "sweep"; s; "steer" ] (Steer.rows_json steer_cold)));
  List.iter remove_tree [ tc; rc; ck ];
  let comp () = { spills = 0; static_single = 0; static_dual = 0; row_finds = 0; row_hits = 0 } in
  Span.set_enabled sp false;
  let replay_timed what c =
    snd (timed (fun () -> ignore (attempt what (fun () -> replay sp ~seed ~cold ~steer_cold c))))
  in
  (* The first replay pays one-time costs (fresh stores, page faults)
     the next two do not; it warms up, untimed. *)
  ignore (replay_timed "sweep replay warm-up" (comp ()));
  let untraced = replay_timed "sweep replay" (comp ()) in
  Span.set_enabled sp true;
  let c = comp () in
  let traced = replay_timed "sweep traced replay" c in
  Span.set_enabled sp false;
  let spans = Span.spans sp in
  Span.clear sp;
  let busy name = Span.total spans name in
  ( spans,
    [ ("sweep.unaccounted_frac", Span.unaccounted_frac spans, "frac");
      ("sweep.trace_overhead_frac", (traced -. untraced) /. untraced, "frac");
      ("compiler.spills", float_of_int c.spills, "count");
      ( "compiler.static_dual_frac",
        float_of_int c.static_dual /. float_of_int (c.static_single + c.static_dual),
        "frac" );
      ("table2.busy_s", busy "mcbench.table2.cold", "s");
      ("steer.busy_s", busy "mcbench.steer.cold", "s");
      ( "pool.efficiency",
        Stat.pool_efficiency
          ~serial_s:(busy "mcbench.table2.cold" +. busy "mcbench.steer.cold")
          ~jobs:sweep_jobs ~wall_s:(t2_wall +. steer_wall),
        "frac" );
      ("result_store.hit_frac", float_of_int c.row_hits /. float_of_int c.row_finds, "frac");
      ("checkpoint.resume_ms", 1e3 *. busy "checkpoint.resume", "ms") ] )

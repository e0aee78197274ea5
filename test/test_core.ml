(* Integration tests for the Mcsim facade: the scenario walkthroughs
   (Figures 2-5), Figure 6, Table 1, the experiment harness, and the
   reduced Table-2 shape. *)

module Machine = Mcsim_cluster.Machine
module Scenario = Mcsim.Scenario
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* --------------------------- scenarios ----------------------------- *)

let scenario_classification () =
  List.iteri
    (fun i o ->
      check Alcotest.int "scenario number" (i + 1)
        (Mcsim_cluster.Distribution.scenario o.Scenario.plan))
    (Scenario.all ())

let scenario1_single_copy () =
  let o = Scenario.run 1 in
  check Alcotest.bool "single copy issued" true
    (Scenario.issue_cycle o Machine.Single_copy <> None);
  check Alcotest.bool "no slave" true (Scenario.issue_cycle o Machine.Slave_copy = None)

let scenario2_ordering () =
  (* Figure 2: the slave issues first, the master one cycle later. *)
  let o = Scenario.run 2 in
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  check Alcotest.int "master issues the cycle after the slave" (slave + 1) master

let scenario3_ordering () =
  (* Figure 3: the master issues first; for a one-cycle add the slave
     issues exactly one cycle later. *)
  let o = Scenario.run 3 in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  check Alcotest.int "slave one cycle after master" (master + 1) slave;
  (* The slave writes the destination register. *)
  check Alcotest.bool "slave writeback present" true
    (List.mem_assoc Machine.Slave_copy (Scenario.writeback_cycles o))

let scenario4_both_write () =
  let o = Scenario.run 4 in
  let wbs = Scenario.writeback_cycles o in
  check Alcotest.bool "master writes its copy" true (List.mem_assoc Machine.Master_copy wbs);
  check Alcotest.bool "slave writes its copy" true (List.mem_assoc Machine.Slave_copy wbs)

let scenario5_suspend_wake () =
  let o = Scenario.run 5 in
  let has_suspend =
    List.exists (function Machine.Ev_suspend _ -> true | _ -> false) o.Scenario.events
  in
  let has_wakeup =
    List.exists (function Machine.Ev_wakeup _ -> true | _ -> false) o.Scenario.events
  in
  check Alcotest.bool "suspend observed" true has_suspend;
  check Alcotest.bool "wakeup observed" true has_wakeup;
  (* The slave issues once, before the master. *)
  let slave = Option.get (Scenario.issue_cycle o Machine.Slave_copy) in
  let master = Option.get (Scenario.issue_cycle o Machine.Master_copy) in
  check Alcotest.bool "slave first" true (slave < master)

let scenario_forward_events () =
  let o2 = Scenario.run 2 in
  check Alcotest.bool "operand forward event" true
    (List.exists
       (function Machine.Ev_operand_forward _ -> true | _ -> false)
       o2.Scenario.events);
  let o3 = Scenario.run 3 in
  check Alcotest.bool "result forward event" true
    (List.exists
       (function Machine.Ev_result_forward _ -> true | _ -> false)
       o3.Scenario.events)

let scenario_render_nonempty () =
  List.iter
    (fun o ->
      check Alcotest.bool "render has content" true
        (String.length (Scenario.render o) > 80))
    (Scenario.all ())

let scenario_bad_number () =
  Alcotest.check_raises "scenario 6" (Invalid_argument "Scenario.run: 6 (want 1-5)")
    (fun () -> ignore (Scenario.run 6))

(* ---------------------------- figure 6 ----------------------------- *)

let figure6_partition_sane () =
  let o = Mcsim.Figure6.run () in
  let prog = o.Mcsim.Figure6.program in
  (* S (the stack pointer) is never partitioned. *)
  check Alcotest.bool "sp is a global candidate" true
    o.Mcsim.Figure6.partition.Mcsim_compiler.Partition.global_candidate.(prog.Mcsim_ir.Program.sp)

let figure6_profile () =
  let prof = Mcsim.Figure6.profile () in
  check (Alcotest.float 1e-9) "block 4 estimate" 100.0 (Mcsim_ir.Profile.count prof 3)

(* ----------------------------- table 1 ----------------------------- *)

let table1_contents () =
  let s = Mcsim.Config.table1 () in
  List.iter
    (fun needle ->
      check Alcotest.bool ("table1 mentions " ^ needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re s 0); true with Not_found -> false))
    [ "single"; "dual"; "8/16"; "latency" ]

(* ------------------------- experiment ------------------------------ *)

let experiment_consistency () =
  let prog = Spec92.program Spec92.Gcc1 in
  let c =
    match Mcsim.Experiment.run_many ~jobs:1 ~max_instrs:8_000 [ prog ] with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one comparison"
  in
  check Alcotest.string "benchmark name" "gcc1" c.Mcsim.Experiment.benchmark;
  check Alcotest.int "trace length" 8_000 c.Mcsim.Experiment.trace_instrs;
  check Alcotest.int "single retires everything" 8_000
    c.Mcsim.Experiment.single.Machine.retired;
  List.iter
    (fun r ->
      check Alcotest.int "dual retires everything" 8_000
        r.Mcsim.Experiment.dual.Machine.retired;
      check Alcotest.bool "speedup finite" true (Float.is_finite r.Mcsim.Experiment.speedup_pct))
    c.Mcsim.Experiment.runs;
  check Alcotest.(list string) "one run per default scheduler, in order"
    (List.map fst Mcsim.Experiment.default_schedulers)
    (List.map (fun r -> r.Mcsim.Experiment.scheduler) c.Mcsim.Experiment.runs)

let experiment_static_counts () =
  let prog = Spec92.program Spec92.Compress in
  List.iter
    (fun c ->
      List.iter
        (fun r ->
          check Alcotest.bool "static counts positive" true
            (r.Mcsim.Experiment.static_single > 0 && r.Mcsim.Experiment.static_dual >= 0))
        c.Mcsim.Experiment.runs)
    (Mcsim.Experiment.run_many ~jobs:1 ~max_instrs:5_000 [ prog ])

(* -------------------------- table 2 shape -------------------------- *)

let table2_gcc1_shape () =
  (* One benchmark at a moderate trace length: the local scheduler must
     beat the native binary on the dual-cluster machine, and both must be
     slower than the single-cluster machine. *)
  let rows = Mcsim.Table2.run ~max_instrs:40_000 ~benchmarks:[ Spec92.Gcc1 ] () in
  match rows with
  | [ r ] ->
    check Alcotest.bool "none is a slowdown" true (r.Mcsim.Table2.none_pct < 0.0);
    check Alcotest.bool
      (Printf.sprintf "local (%.1f) beats none (%.1f)" r.Mcsim.Table2.local_pct
         r.Mcsim.Table2.none_pct)
      true
      (r.Mcsim.Table2.local_pct > r.Mcsim.Table2.none_pct)
  | _ -> Alcotest.fail "expected one row"

let table2_ora_inversion () =
  let rows = Mcsim.Table2.run ~max_instrs:40_000 ~benchmarks:[ Spec92.Ora ] () in
  match rows with
  | [ r ] ->
    check Alcotest.bool
      (Printf.sprintf "ora: local (%.1f) worse than none (%.1f)" r.Mcsim.Table2.local_pct
         r.Mcsim.Table2.none_pct)
      true
      (r.Mcsim.Table2.local_pct < r.Mcsim.Table2.none_pct)
  | _ -> Alcotest.fail "expected one row"

let table2_render () =
  let rows =
    [ { Mcsim.Table2.benchmark = "gcc1"; none_pct = -15.0; local_pct = -10.0;
        single_cycles = 100; none_cycles = 115; local_cycles = 110; none_replays = 0;
        local_replays = 0 } ]
  in
  let s = Mcsim.Table2.render rows in
  check Alcotest.bool "mentions the benchmark" true
    (try ignore (Str.search_forward (Str.regexp_string "gcc1") s 0); true
     with Not_found -> false);
  check Alcotest.bool "mentions the paper value" true
    (try ignore (Str.search_forward (Str.regexp_string "-15.0") s 0); true
     with Not_found -> false)

let table2_paper_values () =
  check Alcotest.int "six rows" 6 (List.length Mcsim.Table2.paper);
  check Alcotest.bool "compress local is the only positive" true
    (List.for_all
       (fun (n, _, local) -> if n = "compress" then local > 0.0 else local < 0.0)
       Mcsim.Table2.paper)

(* -------------------------- cycle time ----------------------------- *)

let cycle_time_analysis () =
  let rows =
    [ { Mcsim.Table2.benchmark = "x"; none_pct = -20.0; local_pct = -20.0;
        single_cycles = 1000; none_cycles = 1200; local_cycles = 1200; none_replays = 0;
        local_replays = 0 } ]
  in
  match Mcsim.Cycle_time.analyse rows with
  | [ n ] ->
    check Alcotest.bool "0.35um: 20% slowdown loses" true (n.Mcsim.Cycle_time.net_035_pct < 0.0);
    check Alcotest.bool "0.18um: 20% slowdown wins" true (n.Mcsim.Cycle_time.net_018_pct > 0.0)
  | _ -> Alcotest.fail "one row expected"

let cycle_time_break_even_text () =
  let s = Mcsim.Cycle_time.break_even_example () in
  check Alcotest.bool "mentions 20%" true
    (try ignore (Str.search_forward (Str.regexp_string "20%") s 0); true
     with Not_found -> false)

(* --------------------------- ablations ----------------------------- *)

let ablation_kind name =
  List.find (fun k -> Mcsim.Ablation.kind_name k = name) Mcsim.Ablation.kinds

let ablation_buffers () =
  let s = Mcsim.Ablation.run ~max_instrs:6_000 (ablation_kind "buffers") Spec92.Gcc1 in
  check Alcotest.int "five points" 5 (List.length s.Mcsim.Ablation.points);
  List.iter
    (fun p -> check Alcotest.bool "cycles positive" true (p.Mcsim.Ablation.dual_cycles > 0))
    s.Mcsim.Ablation.points;
  check Alcotest.bool "render nonempty" true (String.length (Mcsim.Ablation.render s) > 40)

let ablation_partitioners () =
  let s =
    Mcsim.Ablation.run ~max_instrs:6_000 (ablation_kind "partitioners") Spec92.Compress
  in
  check Alcotest.int "four partitioners" 4 (List.length s.Mcsim.Ablation.points)

(* Every sweep's name, labels and dual-cluster cycles on compress at
   2000 instructions, as the nine per-sweep entry points computed them
   before the sweeps became one table: a point that reads the wrong
   trace or machine moves a cycle count here. *)
let ablation_kinds_pinned () =
  let pinned =
    [ ( "buffers",
        "transfer-buffer entries per cluster (local scheduler)",
        [ ("2 entries", 3727); ("4 entries", 2074); ("8 entries", 1752);
          ("16 entries", 1752); ("32 entries", 1752) ] );
      ( "threshold",
        "local-scheduler imbalance threshold",
        [ ("threshold 1", 1765); ("threshold 2", 1752); ("threshold 4", 1747);
          ("threshold 8", 1755); ("threshold 16", 1743); ("threshold 32", 1721) ] );
      ( "partitioners",
        "live-range partitioner",
        [ ("none", 1803); ("random", 1768); ("round-robin", 1801); ("local", 1752) ] );
      ( "globals",
        "global-register designation (native binary)",
        [ ("no globals", 1794); ("sp only", 1799); ("sp+gp (paper)", 1803) ] );
      ( "dq",
        "single-cluster dispatch-queue size (cycles vs the 128-entry baseline)",
        [ ("32 entries", 1711); ("64 entries", 1658); ("128 entries", 1658);
          ("256 entries", 1658) ] );
      ( "unroll",
        "loop unrolling before the local scheduler (paper section 6)",
        [ ("no unrolling", 1752); ("unroll x2", 1752); ("unroll x4", 1752) ] );
      ( "queues",
        "dispatch-queue organization (single queue vs per-class queues)",
        [ ("unified 64 (paper)", 1752); ("split 32/16/16 (R10000-style)", 1761);
          ("unified 32", 1762); ("split 16/8/8", 1826) ] );
      ( "memory",
        "memory fetch latency (local scheduler, matched baselines)",
        [ ("4-cycle memory", 828); ("8-cycle memory", 1124);
          ("16-cycle memory (paper)", 1752); ("32-cycle memory", 3041);
          ("64-cycle memory", 5633) ] );
      ( "mshrs",
        "data-cache miss-handling entries (Farkas & Jouppi, ISCA'94)",
        [ ("1 MSHR (blocking-ish)", 9493); ("2 MSHRs", 4846); ("4 MSHRs", 2709);
          ("8 MSHRs", 1892); ("inverted MSHR (paper)", 1752) ] ) ]
  in
  check Alcotest.(list string) "kinds in CLI order"
    (List.map (fun (n, _, _) -> n) pinned)
    (List.map Mcsim.Ablation.kind_name Mcsim.Ablation.kinds);
  List.iter
    (fun (name, sweep_name, points) ->
      let s =
        Mcsim.Ablation.run ~jobs:1 ~max_instrs:2_000 (ablation_kind name) Spec92.Compress
      in
      check Alcotest.string (name ^ ": sweep name") sweep_name s.Mcsim.Ablation.sweep_name;
      check Alcotest.(list (pair string int)) (name ^ ": labels and cycles") points
        (List.map
           (fun p -> (p.Mcsim.Ablation.label, p.Mcsim.Ablation.dual_cycles))
           s.Mcsim.Ablation.points))
    pinned

(* The steer and cluster-count cells and the Table-2 row on compress at
   2000 instructions, as the drivers computed them while each staged
   its per-benchmark preparation on its own: sharing that work must not
   move a cycle. Both matrices run on two domains, so cells of one
   benchmark race for its shared profile. *)
let steer_cells_pinned () =
  let pinned =
    [ (("none", 2), [ 1803; 1822; 1782; 1813; 1781 ]);
      (("none", 4), [ 3338; 2989; 1869; 4284; 1868 ]);
      (("none", 8), [ 12073; 11715; 2340; 14029; 3218 ]);
      (("local", 2), [ 1752; 1822; 1756; 1831; 1763 ]);
      (("local", 4), [ 2369; 2549; 1863; 3353; 1937 ]);
      (("local", 8), [ 7750; 9798; 2389; 11276; 3447 ]) ]
  in
  match Mcsim.Steer.run ~jobs:2 ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] () with
  | [ row ] ->
    let name = Mcsim_cluster.Steering.to_string in
    check
      Alcotest.(list (pair (triple string int string) int))
      "(scheduler, clusters, steering) -> cycles"
      (List.concat_map
         (fun ((scheduler, clusters), cycles) ->
           List.map2
             (fun steering c -> ((scheduler, clusters, name steering), c))
             Mcsim_cluster.Steering.all cycles)
         pinned)
      (List.map
         (fun (c : Mcsim.Steer.cell) ->
           ((c.Mcsim.Steer.scheduler, c.Mcsim.Steer.clusters, name c.Mcsim.Steer.steering),
            c.Mcsim.Steer.cycles))
         row.Mcsim.Steer.cells)
  | rows -> Alcotest.failf "expected one steer row, got %d" (List.length rows)

let cluster_count_cells_pinned () =
  match
    Mcsim.Cluster_count.run ~jobs:2 ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ()
  with
  | [ row ] ->
    check Alcotest.int "single-cluster baseline" 1658 row.Mcsim.Cluster_count.single_cycles;
    check
      Alcotest.(list (pair (pair int string) int))
      "(clusters, topology) -> cycles"
      [ ((1, "p2p"), 1658); ((2, "p2p"), 1752); ((2, "ring"), 1752); ((2, "xbar"), 1822);
        ((4, "p2p"), 2369); ((4, "ring"), 2600); ((4, "xbar"), 3023);
        ((8, "p2p"), 7750); ((8, "ring"), 10206); ((8, "xbar"), 8525) ]
      (List.map
         (fun (c : Mcsim.Cluster_count.cell) ->
           ( ( c.Mcsim.Cluster_count.clusters,
               Mcsim_cluster.Interconnect.to_string c.Mcsim.Cluster_count.topology ),
             c.Mcsim.Cluster_count.cycles ))
         row.Mcsim.Cluster_count.cells)
  | rows -> Alcotest.failf "expected one clusters row, got %d" (List.length rows)

let table2_row_pinned () =
  check
    Alcotest.(list (pair string (list int)))
    "benchmark -> single, none, local cycles"
    [ ("compress", [ 1658; 1803; 1752 ]) ]
    (List.map
       (fun (r : Mcsim.Table2.row) ->
         ( r.Mcsim.Table2.benchmark,
           [ r.Mcsim.Table2.single_cycles; r.Mcsim.Table2.none_cycles;
             r.Mcsim.Table2.local_cycles ] ))
       (Mcsim.Table2.run ~jobs:2 ~max_instrs:2_000 ~benchmarks:[ Spec92.Compress ] ()))

let suite =
  ( "core",
    [ case "scenarios: classification 1-5" scenario_classification;
      case "scenario 1: single copy only" scenario1_single_copy;
      case "scenario 2: master after slave (Figure 2)" scenario2_ordering;
      case "scenario 3: slave after master (Figure 3)" scenario3_ordering;
      case "scenario 4: both copies written (Figure 4)" scenario4_both_write;
      case "scenario 5: suspend and wake (Figure 5)" scenario5_suspend_wake;
      case "scenarios: forwarding events" scenario_forward_events;
      case "scenarios: rendering" scenario_render_nonempty;
      case "scenarios: bad number" scenario_bad_number;
      case "figure 6: partition sanity" figure6_partition_sane;
      case "figure 6: profile estimates" figure6_profile;
      case "table 1: contents" table1_contents;
      case "experiment: consistency" experiment_consistency;
      case "experiment: static counts" experiment_static_counts;
      case "table 2: gcc1 shape" table2_gcc1_shape;
      case "table 2: ora inversion" table2_ora_inversion;
      case "table 2: rendering" table2_render;
      case "table 2: paper values" table2_paper_values;
      case "cycle time: analysis signs" cycle_time_analysis;
      case "cycle time: break-even text" cycle_time_break_even_text;
      case "ablation: transfer buffers" ablation_buffers;
      case "ablation: partitioners" ablation_partitioners;
      case "ablation: every kind's name, labels and cycles are pinned"
        ablation_kinds_pinned;
      case "steer: every cell's cycles are pinned" steer_cells_pinned;
      case "clusters: every cell's cycles are pinned" cluster_count_cells_pinned;
      case "table 2: compress row's cycles are pinned" table2_row_pinned ] )

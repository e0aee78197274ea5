(* Tests for Mcsim_util.Pool and the determinism guarantee of the
   parallel experiment fan-out: results must be bit-for-bit identical
   for every jobs value. *)

module Pool = Mcsim_util.Pool
module Spec92 = Mcsim_workload.Spec92

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ---------------------------- pool --------------------------------- *)

let pool_empty () =
  check (Alcotest.list Alcotest.int) "empty" [] (Pool.parallel_map ~jobs:4 (fun x -> x) []);
  check (Alcotest.list Alcotest.int) "singleton" [ 9 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x * 3) [ 3 ])

let pool_order () =
  let xs = List.init 100 (fun i -> i) in
  check (Alcotest.list Alcotest.int) "order preserved"
    (List.map (fun x -> x * x) xs)
    (Pool.parallel_map ~jobs:7 (fun x -> x * x) xs)

let pool_serial_degenerate () =
  let xs = [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "jobs=1 is List.map" (List.map succ xs)
    (Pool.parallel_map ~jobs:1 succ xs)

let pool_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.parallel_map: jobs < 1") (fun () ->
      ignore (Pool.parallel_map ~jobs:0 succ [ 1 ]))

exception Boom of int

let pool_exception_propagates () =
  (* The worker exception must surface on the caller, and it must be the
     one from the smallest failing index. *)
  match
    Pool.parallel_map ~jobs:4
      (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
      (List.init 20 (fun i -> i + 1))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> check Alcotest.int "smallest failing index wins" 3 x

let pool_matches_list_map =
  QCheck.Test.make ~name:"parallel_map agrees with List.map for any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (jobs, xs) ->
      Pool.parallel_map ~jobs (fun x -> (x * 31) lxor 5) xs
      = List.map (fun x -> (x * 31) lxor 5) xs)

(* ----------------------- fan-out determinism ------------------------ *)

let row_eq (a : Mcsim.Table2.row) (b : Mcsim.Table2.row) =
  a.Mcsim.Table2.benchmark = b.Mcsim.Table2.benchmark
  && a.Mcsim.Table2.none_pct = b.Mcsim.Table2.none_pct
  && a.Mcsim.Table2.local_pct = b.Mcsim.Table2.local_pct
  && a.Mcsim.Table2.single_cycles = b.Mcsim.Table2.single_cycles
  && a.Mcsim.Table2.none_cycles = b.Mcsim.Table2.none_cycles
  && a.Mcsim.Table2.local_cycles = b.Mcsim.Table2.local_cycles
  && a.Mcsim.Table2.none_replays = b.Mcsim.Table2.none_replays
  && a.Mcsim.Table2.local_replays = b.Mcsim.Table2.local_replays

(* Two domains force one [once] thunk together: [f] runs once and both
   get the very value it made. [f] sleeps so the second caller arrives
   while the first call is still running. *)
let once_races () =
  let runs = Atomic.make 0 in
  let shared =
    Pool.once (fun () ->
        Atomic.incr runs;
        Unix.sleepf 0.02;
        ref 42)
  in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    shared ()
  in
  let other = Domain.spawn force in
  let mine = force () in
  let theirs = Domain.join other in
  check Alcotest.int "f ran once" 1 (Atomic.get runs);
  check Alcotest.bool "both callers got the same value" true (mine == theirs)

let once_retries_after_exception () =
  let calls = ref 0 in
  let shared =
    Pool.once (fun () ->
        incr calls;
        if !calls = 1 then failwith "first call fails" else !calls)
  in
  (match shared () with
  | _ -> Alcotest.fail "expected the first call to raise"
  | exception Failure _ -> ());
  check Alcotest.int "the next call runs f again" 2 (shared ());
  check Alcotest.int "and its value is kept" 2 (shared ());
  check Alcotest.int "f ran twice in all" 2 !calls

let table2_jobs_invariant () =
  (* Short traces keep this affordable; every benchmark and both machine
     configs are still exercised. *)
  let serial = Mcsim.Table2.run ~jobs:1 ~max_instrs:6_000 () in
  List.iter
    (fun jobs ->
      let par = Mcsim.Table2.run ~jobs ~max_instrs:6_000 () in
      check Alcotest.int (Printf.sprintf "row count, jobs=%d" jobs)
        (List.length serial) (List.length par);
      List.iter2
        (fun a b ->
          if not (row_eq a b) then
            Alcotest.failf "jobs=%d changed row %s" jobs a.Mcsim.Table2.benchmark)
        serial par)
    [ 2; 4; 8 ]

let experiment_jobs_invariant () =
  let run jobs =
    Mcsim.Experiment.run_many ~jobs ~max_instrs:5_000
      [ Spec92.program Spec92.Compress; Spec92.program Spec92.Ora ]
  in
  let serial = run 1 and par = run 4 in
  List.iter2
    (fun (a : Mcsim.Experiment.comparison) (b : Mcsim.Experiment.comparison) ->
      check Alcotest.string "benchmark" a.Mcsim.Experiment.benchmark
        b.Mcsim.Experiment.benchmark;
      check Alcotest.int "trace length" a.Mcsim.Experiment.trace_instrs
        b.Mcsim.Experiment.trace_instrs;
      check Alcotest.int "single cycles"
        a.Mcsim.Experiment.single.Mcsim_cluster.Machine.cycles
        b.Mcsim.Experiment.single.Mcsim_cluster.Machine.cycles;
      List.iter2
        (fun (ra : Mcsim.Experiment.run) (rb : Mcsim.Experiment.run) ->
          check Alcotest.string "scheduler" ra.Mcsim.Experiment.scheduler
            rb.Mcsim.Experiment.scheduler;
          check Alcotest.int "dual cycles"
            ra.Mcsim.Experiment.dual.Mcsim_cluster.Machine.cycles
            rb.Mcsim.Experiment.dual.Mcsim_cluster.Machine.cycles;
          check Alcotest.int "replays"
            ra.Mcsim.Experiment.dual.Mcsim_cluster.Machine.replays
            rb.Mcsim.Experiment.dual.Mcsim_cluster.Machine.replays;
          check (Alcotest.float 0.0) "speedup" ra.Mcsim.Experiment.speedup_pct
            rb.Mcsim.Experiment.speedup_pct;
          check Alcotest.int "spills" ra.Mcsim.Experiment.spills rb.Mcsim.Experiment.spills)
        a.Mcsim.Experiment.runs b.Mcsim.Experiment.runs)
    serial par

let ablation_ctx_reuse () =
  (* A sweep's points share its benchmark's baseline and local-scheduler
     trace across domains: sharing must give the points a serial run
     gives, and every sweep that reads the local-scheduler trace on the
     paper's dual-cluster machine must see the same cycles. *)
  let bench = Spec92.Compress in
  let run ~jobs name =
    Mcsim.Ablation.run ~jobs ~max_instrs:4_000
      (List.find (fun k -> Mcsim.Ablation.kind_name k = name) Mcsim.Ablation.kinds)
      bench
  in
  let serial = run ~jobs:1 "buffers" in
  let shared = run ~jobs:2 "buffers" in
  check Alcotest.bool "two-domain sweep equals serial sweep" true (serial = shared);
  let cycles s label =
    (List.find (fun p -> p.Mcsim.Ablation.label = label) s.Mcsim.Ablation.points)
      .Mcsim.Ablation.dual_cycles
  in
  let unroll = run ~jobs:2 "unroll" in
  check Alcotest.int "unrolling has all points" 3 (List.length unroll.Mcsim.Ablation.points);
  check Alcotest.int "no unrolling = 8 entries" (cycles shared "8 entries")
    (cycles unroll "no unrolling");
  check Alcotest.int "local partitioner = 8 entries" (cycles shared "8 entries")
    (cycles (run ~jobs:2 "partitioners") "local")

let suite =
  ( "parallel",
    [ case "parallel_map: empty and singleton" pool_empty;
      case "parallel_map: preserves order" pool_order;
      case "parallel_map: jobs=1 degenerates to map" pool_serial_degenerate;
      case "parallel_map: rejects jobs=0" pool_invalid_jobs;
      case "parallel_map: propagates the first exception" pool_exception_propagates;
      QCheck_alcotest.to_alcotest pool_matches_list_map;
      case "once: two racing domains run f once and share its value" once_races;
      case "once: an exception is not remembered" once_retries_after_exception;
      case "Table2.run is jobs-invariant" table2_jobs_invariant;
      case "Experiment.run_many is jobs-invariant" experiment_jobs_invariant;
      case "Ablation context reuse is transparent" ablation_ctx_reuse ] )

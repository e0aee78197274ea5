(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, runs the ablation sweeps DESIGN.md calls out, and
   finishes with Bechamel microbenchmarks of the simulator's components.

   Run with: dune exec bench/main.exe
   (Set MCSIM_BENCH_FAST=1 for a quick pass with shorter traces.) *)

module Machine = Mcsim_cluster.Machine
module Spec92 = Mcsim_workload.Spec92

let fast = Sys.getenv_opt "MCSIM_BENCH_FAST" <> None
let table2_instrs = if fast then 30_000 else 120_000
let ablation_instrs = if fast then 10_000 else 30_000

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n\n" bar title bar

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 - instruction-issue rules and functional-unit latencies";
  print_string (Mcsim.Config.table1 ());
  print_newline ();
  Printf.printf "single-cluster machine: %s\n"
    (Mcsim.Config.describe (Machine.single_cluster ()));
  Printf.printf "dual-cluster machine:   %s\n" (Mcsim.Config.describe (Machine.dual_cluster ()))

let figures_2_to_5 () =
  section "Figures 2-5 - the five execution scenarios (section 2.1)";
  List.iter
    (fun o ->
      print_string (Mcsim.Scenario.render o);
      print_newline ())
    (Mcsim.Scenario.all ())

let figure6 () =
  section "Figure 6 - the local scheduler's worked example (section 3.5)";
  print_string (Mcsim.Figure6.render (Mcsim.Figure6.run ()))

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* All BENCH_*.json files are Mcsim_obs.Metrics snapshots: the same
   schema_version/kind/manifest/data top level as --metrics-out, with the
   section-specific fields inside "data". *)
module J = Mcsim_obs.Json

let write_bench_json path ~kind ?sampling ~trace_instrs extra =
  let manifest =
    Mcsim_obs.Manifest.make ~created_unix:(Unix.time ()) ~trace_instrs ?sampling
      (Machine.dual_cluster ())
  in
  Mcsim_obs.Metrics.write_file path
    (Mcsim_obs.Metrics.snapshot ~manifest ~kind ~extra ());
  Printf.printf "  (wrote %s)\n" path

(* Machine-readable record of the serial-vs-parallel Table-2 run, for
   tracking the fan-out's wall-clock win across machines. *)
let write_table2_json ~jobs ~serial_s ~parallel_s ~rows_identical rows =
  write_bench_json "BENCH_table2.json" ~kind:"bench-table2" ~trace_instrs:table2_instrs
    [ ("max_instrs", J.Int table2_instrs);
      ("cores", J.Int (Mcsim_util.Pool.default_jobs ()));
      ("jobs_parallel", J.Int jobs);
      ("serial_seconds", J.Float serial_s);
      ("parallel_seconds", J.Float parallel_s);
      ("speedup", J.Float (serial_s /. Float.max 1e-9 parallel_s));
      ("rows_identical", J.Bool rows_identical);
      ("benchmarks", Mcsim.Report.table2_json rows) ]

let table2 () =
  section
    (Printf.sprintf "Table 2 - dual-cluster speedup/slowdown (%d-instruction traces)"
       table2_instrs);
  let rows, serial_s = wall (fun () -> Mcsim.Table2.run ~jobs:1 ~max_instrs:table2_instrs ()) in
  let jobs = max 4 (Mcsim_util.Pool.default_jobs ()) in
  let rows_par, parallel_s =
    wall (fun () -> Mcsim.Table2.run ~jobs ~max_instrs:table2_instrs ())
  in
  let rows_identical = rows = rows_par in
  print_string (Mcsim.Table2.render rows);
  print_newline ();
  print_endline "Qualitative claims (measured against the paper):";
  List.iter
    (fun (ok, what) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "MISS") what)
    (Mcsim.Table2.shape_holds rows);
  print_newline ();
  print_endline "Replay-exception counts (the paper's explanation of the ora row):";
  List.iter
    (fun r ->
      Printf.printf "  %-9s none=%d local=%d\n" r.Mcsim.Table2.benchmark
        r.Mcsim.Table2.none_replays r.Mcsim.Table2.local_replays)
    rows;
  print_newline ();
  Printf.printf
    "Wall clock: jobs=1 %.2fs, jobs=%d %.2fs, speedup %.2fx; parallel rows %s\n" serial_s
    jobs parallel_s
    (serial_s /. Float.max 1e-9 parallel_s)
    (if rows_identical then "identical to serial" else "DIFFER from serial (BUG)");
  write_table2_json ~jobs ~serial_s ~parallel_s ~rows_identical rows;
  rows

let cycle_time rows =
  section "Sections 4.2 and 5 - folding in the Palacharla cycle-time model";
  print_string (Mcsim.Cycle_time.break_even_example ());
  print_newline ();
  let net = Mcsim.Cycle_time.analyse rows in
  print_string (Mcsim.Cycle_time.render net);
  print_newline ();
  List.iter
    (fun (ok, what) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "MISS") what)
    (Mcsim.Cycle_time.conclusion_holds net)

let four_way () =
  section
    "Four-way issue machines (the paper ran both widths; 8-way shows the trends more clearly)";
  let rows =
    Mcsim.Table2.run
      ~max_instrs:(table2_instrs / 2)
      ~single_config:(Machine.single_cluster_4 ())
      ~dual_config:(Machine.dual_cluster_2x2 ())
      ()
  in
  let header = [ "benchmark"; "none %"; "local %" ] in
  let body =
    List.map
      (fun r ->
        [ r.Mcsim.Table2.benchmark; Printf.sprintf "%+.1f" r.Mcsim.Table2.none_pct;
          Printf.sprintf "%+.1f" r.Mcsim.Table2.local_pct ])
      rows
  in
  Mcsim_util.Text_table.print
    ~aligns:[| Mcsim_util.Text_table.Left; Right; Right |]
    (header :: body)

let cluster_scaling () =
  section "Cluster-count scaling (1/2/4/8 clusters x interconnect topology)";
  let rows = Mcsim.Cluster_count.run ~max_instrs:(table2_instrs / 2) () in
  print_string (Mcsim.Cluster_count.render rows);
  write_bench_json "BENCH_clusters.json" ~kind:"bench-clusters"
    ~trace_instrs:(table2_instrs / 2)
    [ ("clusters", Mcsim.Cluster_count.rows_json rows) ]

let reassignment () =
  section "Section 6 extension - dynamic register reassignment";
  print_string (Mcsim.Reassign.render (Mcsim.Reassign.run ()))

(* The paper's closing static-vs-dynamic question (§6): the compile-time
   scheduler x dispatch-time steering x cluster-count matrix. *)
let steer_matrix () =
  section "Section 6 extension - dispatch-time steering vs compile-time scheduling";
  let instrs = table2_instrs / 2 in
  let rows = Mcsim.Steer.run ~max_instrs:instrs () in
  print_string (Mcsim.Steer.render rows);
  print_newline ();
  print_endline "Best dynamic policy at >= 4 clusters (vs static, same scheduler):";
  List.iter
    (fun (r : Mcsim.Steer.row) ->
      let best =
        List.fold_left
          (fun acc (c : Mcsim.Steer.cell) ->
            if
              c.Mcsim.Steer.clusters >= 4
              && Mcsim_cluster.Steering.is_dynamic c.Mcsim.Steer.steering
              && (match acc with
                 | None -> true
                 | Some b -> c.Mcsim.Steer.vs_static_pct > b.Mcsim.Steer.vs_static_pct)
            then Some c
            else acc)
          None r.Mcsim.Steer.cells
      in
      match best with
      | Some c ->
        Printf.printf "  %-9s %s/%d-cluster %-12s %+.1f%%\n" r.Mcsim.Steer.benchmark
          c.Mcsim.Steer.scheduler c.Mcsim.Steer.clusters
          (Mcsim_cluster.Steering.to_string c.Mcsim.Steer.steering)
          c.Mcsim.Steer.vs_static_pct
      | None -> ())
    rows;
  write_bench_json "BENCH_steer.json" ~kind:"bench-steer" ~trace_instrs:instrs
    [ ("max_instrs", J.Int instrs); ("steer", Mcsim.Steer.rows_json rows) ]

(* ------------------------------------------------------------------ *)
(* Sampled simulation: full detailed run vs SMARTS-style sampling on a
   long trace, recording accuracy and wall-clock speedup per benchmark. *)

module Sampling = Mcsim_sampling.Sampling

let sampling_instrs = if fast then 200_000 else 1_200_000

let write_sampling_json entries =
  let errs = List.map (fun (_, _, _, _, _, e) -> e) entries in
  let speedups = List.map (fun (_, _, _, f, s, _) -> f /. Float.max 1e-9 s) entries in
  let total proj = List.fold_left (fun acc e -> acc +. proj e) 0.0 entries in
  let bench (name, full_ipc, (r : Sampling.t), full_s, sampled_s, err) =
    J.Obj
      [ ("benchmark", J.String name);
        ("full_ipc", J.Float full_ipc);
        ("sampled_ipc", J.Float r.Sampling.mean_ipc);
        ("ci_rel_pct", J.Float (100.0 *. Sampling.ci_rel r));
        ("abs_ipc_error_pct", J.Float err);
        ("full_seconds", J.Float full_s);
        ("sampled_seconds", J.Float sampled_s);
        ("speedup", J.Float (full_s /. Float.max 1e-9 sampled_s));
        ("sampling", Mcsim_obs.Metrics.sampling_json r) ]
  in
  write_bench_json "BENCH_sampling.json" ~kind:"bench-sampling"
    ~sampling:Sampling.default_policy ~trace_instrs:sampling_instrs
    [ ("trace_instrs", J.Int sampling_instrs);
      ("policy", J.String (Sampling.policy_to_string Sampling.default_policy));
      ("max_abs_ipc_error_pct", J.Float (List.fold_left Float.max 0.0 errs));
      ("min_speedup", J.Float (List.fold_left Float.min infinity speedups));
      ( "overall_speedup",
        J.Float
          (total (fun (_, _, _, f, _, _) -> f)
          /. Float.max 1e-9 (total (fun (_, _, _, _, s, _) -> s))) );
      ("benchmarks", J.List (List.map bench entries)) ]

let sampled_simulation () =
  section
    (Printf.sprintf
       "Sampled simulation - full vs %s sampling, %d-instruction traces, dual-cluster machine"
       (Sampling.policy_to_string Sampling.default_policy)
       sampling_instrs);
  let cfg = Machine.dual_cluster () in
  let entries =
    List.map
      (fun b ->
        let name = Spec92.name b in
        let prog = Spec92.program b in
        let profile = Mcsim_trace.Walker.profile prog in
        let compiled =
          Mcsim_compiler.Pipeline.compile ~profile
            ~scheduler:Mcsim_compiler.Pipeline.default_local prog
        in
        let trace =
          Mcsim_trace.Walker.trace ~max_instrs:sampling_instrs
            compiled.Mcsim_compiler.Pipeline.mach
        in
        Gc.major ();
        let full, full_s = wall (fun () -> Machine.run cfg trace) in
        (* The sampled run is deterministic and cheap: time it twice and
           keep the faster pass, shedding first-touch and GC noise. *)
        Gc.major ();
        let sample () =
          Sampling.run_flat cfg (Mcsim_isa.Flat_trace.of_dynamic_array trace)
        in
        let sampled, s1 = wall sample in
        let _, s2 = wall sample in
        let sampled_s = Float.min s1 s2 in
        let err =
          100.0
          *. Float.abs (sampled.Sampling.mean_ipc -. full.Machine.ipc)
          /. full.Machine.ipc
        in
        Printf.printf
          "  %-9s full IPC %.4f (%.2fs)  sampled IPC %.4f +/-%.2f%% (%.2fs)  \
           error %.2f%%  speedup %.2fx\n"
          name full.Machine.ipc full_s sampled.Sampling.mean_ipc
          (100.0 *. Sampling.ci_rel sampled)
          sampled_s err
          (full_s /. Float.max 1e-9 sampled_s);
        (name, full.Machine.ipc, sampled, full_s, sampled_s, err))
      Spec92.all
  in
  print_newline ();
  write_sampling_json entries

(* ------------------------------------------------------------------ *)
(* Engine comparison: the dependence-driven wakeup engine against the
   reference per-cycle scan on long traces. The two must agree
   bit-for-bit on every counter; wakeup being slower than scan is a
   regression that fails the harness. *)

let machine_instrs = if fast then 200_000 else 1_200_000

(* Violations (result divergence, performance regression) are collected
   here and turned into a nonzero exit at the end of the run, so CI can
   gate on them. *)
let violations : string list ref = ref []

let violation fmt =
  Printf.ksprintf (fun m -> violations := m :: !violations; Printf.printf "  VIOLATION: %s\n" m) fmt

let write_machine_json entries ~identical ~overall_speedup ~wakeup_wpi_mean
    ~dispatch_wpi_mean =
  let ips s = float_of_int machine_instrs /. Float.max 1e-9 s in
  let bench (name, (r : Machine.result), scan_s, wake_s, scan_wpi, wake_wpi, dispatch_wpi) =
    J.Obj
      [ ("benchmark", J.String name);
        ("ipc", J.Float r.Machine.ipc);
        ("scan_seconds", J.Float scan_s);
        ("wakeup_seconds", J.Float wake_s);
        ("scan_instrs_per_sec", J.Float (ips scan_s));
        ("wakeup_instrs_per_sec", J.Float (ips wake_s));
        ("speedup", J.Float (scan_s /. Float.max 1e-9 wake_s));
        ("scan_words_per_instr", J.Float scan_wpi);
        ("wakeup_words_per_instr", J.Float wake_wpi);
        ("dispatch_words_per_instr", J.Float dispatch_wpi);
        ("result", Mcsim_obs.Metrics.result_json r) ]
  in
  write_bench_json "BENCH_machine.json" ~kind:"bench-machine" ~trace_instrs:machine_instrs
    [ ("trace_instrs", J.Int machine_instrs);
      ("ipc_identical", J.Bool identical);
      ("overall_speedup", J.Float overall_speedup);
      ("wakeup_words_per_instr_mean", J.Float wakeup_wpi_mean);
      ("dispatch_words_per_instr", J.Float dispatch_wpi_mean);
      ("benchmarks", J.List (List.map bench entries)) ]

let engine_comparison () =
  section
    (Printf.sprintf
       "Machine engines - scan vs wakeup issue logic, %d-instruction traces, \
        dual-cluster machine"
       machine_instrs);
  let cfg = Machine.dual_cluster () in
  let entries =
    List.map
      (fun b ->
        let name = Spec92.name b in
        let prog = Spec92.program b in
        let profile = Mcsim_trace.Walker.profile prog in
        let compiled =
          Mcsim_compiler.Pipeline.compile ~profile
            ~scheduler:Mcsim_compiler.Pipeline.default_local prog
        in
        let trace =
          Mcsim_trace.Walker.trace_flat ~max_instrs:machine_instrs
            compiled.Mcsim_compiler.Pipeline.mach
        in
        (* Each engine: one pass measuring minor-heap allocation, then a
           second timed pass; keep the faster time (the runs are
           deterministic, so the only difference is GC/first-touch noise). *)
        let run_engine engine =
          Gc.major ();
          let w0 = Gc.minor_words () in
          let r, s1 = wall (fun () -> Machine.run_flat ~engine cfg trace) in
          let words = Gc.minor_words () -. w0 in
          Gc.major ();
          let _, s2 = wall (fun () -> Machine.run_flat ~engine cfg trace) in
          (r, Float.min s1 s2, words /. float_of_int machine_instrs)
        in
        let scan_r, scan_s, scan_wpi = run_engine `Scan in
        let wake_r, wake_s, wake_wpi = run_engine `Wakeup in
        (* One more profiled pass for the per-stage allocation breakdown;
           the headline there is the dispatch stage, the target of the
           pooled-slab work. *)
        let dispatch_wpi =
          let p = Machine.profile_counters () in
          Gc.major ();
          ignore (Machine.run_flat ~engine:`Wakeup ~profile:p cfg trace);
          let module P = Mcsim_util.Profile_counters in
          let wpi = ref 0.0 in
          for i = 0 to P.n_stages p - 1 do
            if P.stage_name p i = "dispatch" then
              wpi := P.alloc p i /. float_of_int machine_instrs
          done;
          !wpi
        in
        if scan_r <> wake_r then
          violation "%s: scan and wakeup results differ (scan %d cycles IPC %.4f, wakeup %d cycles IPC %.4f)"
            name scan_r.Machine.cycles scan_r.Machine.ipc wake_r.Machine.cycles
            wake_r.Machine.ipc;
        Printf.printf
          "  %-9s IPC %.4f  scan %.2fs (%.0f w/i)  wakeup %.2fs (%.0f w/i, dispatch %.1f w/i, %.2fM instr/s)  speedup %.2fx%s\n"
          name wake_r.Machine.ipc scan_s scan_wpi wake_s wake_wpi dispatch_wpi
          (float_of_int machine_instrs /. Float.max 1e-9 wake_s /. 1e6)
          (scan_s /. Float.max 1e-9 wake_s)
          (if scan_r = wake_r then "" else "  [DIVERGED]");
        (name, wake_r, scan_s, wake_s, scan_wpi, wake_wpi, dispatch_wpi))
      Spec92.all
  in
  let total proj = List.fold_left (fun acc e -> acc +. proj e) 0.0 entries in
  let overall_speedup =
    total (fun (_, _, s, _, _, _, _) -> s)
    /. Float.max 1e-9 (total (fun (_, _, _, w, _, _, _) -> w))
  in
  let identical = !violations = [] in
  if overall_speedup < 1.0 then
    violation "wakeup engine is slower than the scan reference overall (%.2fx)"
      overall_speedup;
  let n = float_of_int (List.length entries) in
  let wakeup_wpi_mean = total (fun (_, _, _, _, _, w, _) -> w) /. n in
  let dispatch_wpi_mean = total (fun (_, _, _, _, _, _, d) -> d) /. n in
  print_newline ();
  Printf.printf "  overall speedup %.2fx (target: >= 2x on full-length traces)\n"
    overall_speedup;
  Printf.printf
    "  canonical allocation figure: wakeup engine averages %.1f minor words/instr \
     (dispatch stage %.1f)\n"
    wakeup_wpi_mean dispatch_wpi_mean;
  write_machine_json entries ~identical ~overall_speedup ~wakeup_wpi_mean
    ~dispatch_wpi_mean

let ablations () =
  section "Ablations - design choices called out in DESIGN.md";
  let show s = print_string (Mcsim.Ablation.render s); print_newline () in
  (* Each sweep makes its benchmark's profile, native trace,
     single-cluster baseline and local-scheduler trace once, shared by
     its points. *)
  let run name b =
    let kind = List.find (fun k -> Mcsim.Ablation.kind_name k = name) Mcsim.Ablation.kinds in
    show (Mcsim.Ablation.run ~max_instrs:ablation_instrs kind b)
  in
  run "buffers" Spec92.Gcc1;
  run "threshold" Spec92.Compress;
  run "partitioners" Spec92.Compress;
  run "partitioners" Spec92.Tomcatv;
  run "globals" Spec92.Gcc1;
  run "dq" Spec92.Compress;
  run "queues" Spec92.Doduc;
  run "memory" Spec92.Su2cor;
  run "mshrs" Spec92.Su2cor;
  run "unroll" Spec92.Tomcatv;
  show (Mcsim.Ablation.unrolling_kernel ~max_instrs:ablation_instrs ())

(* ------------------------------------------------------------------ *)
(* Durability: checkpoint/resume and retry under injected faults       *)
(* ------------------------------------------------------------------ *)

let durable_instrs = if fast then 10_000 else 30_000

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let durable () =
  section
    (Printf.sprintf
       "Durability - checkpoint/resume and fault injection (%d-instruction traces)"
       durable_instrs);
  let benchmarks = [ Spec92.Compress; Spec92.Ora; Spec92.Doduc ] in
  let names = String.concat "," (List.map Spec92.name benchmarks) in
  let clean, clean_s =
    wall (fun () -> Mcsim.Table2.run ~max_instrs:durable_instrs ~benchmarks ())
  in
  Printf.printf "clean sweep of %s: %.2fs\n" names clean_s;
  (* 1. Transient faults: with a 40%% per-attempt injected fault rate and
     three retries, the sweep must still complete with identical rows. *)
  let dir_transient = Filename.temp_dir "mcsim-bench-durable" "-transient" in
  let retried, retried_s =
    wall (fun () ->
        Mcsim.Table2.run ~max_instrs:durable_instrs ~benchmarks ~retries:3
          ~inject_fault:(fun ~job ~attempt ->
            Mcsim_util.Pool.seeded_faults ~seed:42 ~rate:0.4 ~job ~attempt)
          ~checkpoint:dir_transient ())
  in
  let retried_identical = retried = clean in
  Printf.printf "with 40%% transient faults and 3 retries: %.2fs, rows %s\n" retried_s
    (if retried_identical then "identical" else "DIFFER");
  if not retried_identical then
    violation "durable: rows under transient faults differ from the clean sweep";
  (* 2. A permanent fault kills some units; the sweep degrades to
     per-benchmark failures instead of aborting, and a later resume of
     the same checkpoint completes the missing work. *)
  let dir_resume = Filename.temp_dir "mcsim-bench-durable" "-resume" in
  let first =
    Mcsim.Table2.run_report ~max_instrs:durable_instrs ~benchmarks
      ~inject_fault:(fun ~job ~attempt:_ -> job = 0)
      ~checkpoint:dir_resume ()
  in
  Printf.printf
    "with a permanent fault on job 0: %d row(s) completed, %d benchmark(s) failed\n"
    (List.length first.Mcsim.Table2.rows)
    (List.length first.Mcsim.Table2.failed);
  if first.Mcsim.Table2.failed = [] then
    violation "durable: permanent fault did not surface as a failed benchmark";
  let resumed, resume_s =
    wall (fun () ->
        Mcsim.Table2.run ~max_instrs:durable_instrs ~benchmarks ~checkpoint:dir_resume ())
  in
  let resume_identical = resumed = clean in
  Printf.printf "resume of the partial checkpoint: %.2fs, rows %s\n" resume_s
    (if resume_identical then "identical" else "DIFFER");
  if not resume_identical then
    violation "durable: resumed rows differ from the clean sweep";
  (* 3. A complete checkpoint never recomputes: rerunning against it with
     an always-failing injector must still return the clean rows. *)
  let cached, cached_s =
    wall (fun () ->
        Mcsim.Table2.run ~max_instrs:durable_instrs ~benchmarks
          ~inject_fault:(fun ~job:_ ~attempt:_ -> true)
          ~checkpoint:dir_transient ())
  in
  let cached_identical = cached = clean in
  Printf.printf "reload of the complete checkpoint: %.2fs, rows %s\n" cached_s
    (if cached_identical then "identical (no unit recomputed)" else "DIFFER");
  if not cached_identical then
    violation "durable: reloading a complete checkpoint recomputed or diverged";
  remove_tree dir_transient;
  remove_tree dir_resume;
  write_bench_json "BENCH_durable.json" ~kind:"bench-durable"
    ~trace_instrs:durable_instrs
    [ ("max_instrs", J.Int durable_instrs);
      ("benchmarks", J.String names);
      ("clean_seconds", J.Float clean_s);
      ("transient_seconds", J.Float retried_s);
      ("transient_identical", J.Bool retried_identical);
      ("failed_first_pass",
       J.List
         (List.map (fun (b, _) -> J.String b) first.Mcsim.Table2.failed));
      ("resume_seconds", J.Float resume_s);
      ("resume_identical", J.Bool resume_identical);
      ("cached_seconds", J.Float cached_s);
      ("cached_identical", J.Bool cached_identical);
      ("rows", Mcsim.Report.table2_json clean) ]

(* ------------------------------------------------------------------ *)
(* Trace store: fresh trace acquisition (profile + compile + walk) vs a
   memory-mapped reload of the cached binary trace — the repeat-run path
   of `mcsim run --trace-cache`. The reload must be >= 3x faster and
   must simulate to bit-identical results.                             *)
(* ------------------------------------------------------------------ *)

let trace_seed = 0

let write_trace_json entries ~identical ~overall_speedup =
  let bench (name, instrs, bytes, gen_s, load_s, (r : Machine.result), same) =
    J.Obj
      [ ("benchmark", J.String name);
        ("instrs", J.Int instrs);
        ("file_bytes", J.Int bytes);
        ("gen_seconds", J.Float gen_s);
        ("load_seconds", J.Float load_s);
        ("speedup", J.Float (gen_s /. Float.max 1e-9 load_s));
        ("gen_instrs_per_sec", J.Float (float_of_int instrs /. Float.max 1e-9 gen_s));
        ("load_instrs_per_sec", J.Float (float_of_int instrs /. Float.max 1e-9 load_s));
        ("ipc", J.Float r.Machine.ipc);
        ("cycles", J.Int r.Machine.cycles);
        ("ipc_identical", J.Bool same) ]
  in
  write_bench_json "BENCH_trace.json" ~kind:"bench-trace" ~trace_instrs:machine_instrs
    [ ("trace_instrs", J.Int machine_instrs);
      ("seed", J.Int trace_seed);
      ("bytes_per_instr", J.Int 16);
      ("ipc_identical", J.Bool identical);
      ("overall_speedup", J.Float overall_speedup);
      ("benchmarks", J.List (List.map bench entries)) ]

let trace_store_bench () =
  section
    (Printf.sprintf
       "Trace store - fresh generation vs mmap'd reload, %d-instruction traces"
       machine_instrs);
  let cfg = Machine.dual_cluster () in
  let dir = Filename.temp_dir "mcsim-bench-trace" "" in
  let store = Mcsim.Trace_store.open_ ~dir in
  let entries =
    List.map
      (fun b ->
        let name = Spec92.name b in
        let prog = Spec92.program b in
        let scheduler = Mcsim_compiler.Pipeline.default_local in
        let gen () =
          let profile = Mcsim_trace.Walker.profile prog in
          let compiled = Mcsim_compiler.Pipeline.compile ~profile ~scheduler prog in
          Mcsim_trace.Walker.trace_flat ~seed:trace_seed ~max_instrs:machine_instrs
            compiled.Mcsim_compiler.Pipeline.mach
        in
        let key =
          { Mcsim.Trace_store.benchmark = name;
            scheduler = Mcsim.Experiment.scheduler_ident scheduler;
            seed = trace_seed;
            max_instrs = machine_instrs }
        in
        Gc.major ();
        let fresh, gen_s = wall gen in
        Mcsim.Trace_store.save store key fresh;
        let bytes = (Unix.stat (Mcsim.Trace_store.path store key)).Unix.st_size in
        (* The reload is deterministic: time it twice, keep the faster
           pass (first-touch page faults land on the first one). *)
        let cached1, l1 = wall (fun () -> Mcsim.Trace_store.find store key) in
        let cached2, l2 = wall (fun () -> Mcsim.Trace_store.find store key) in
        let load_s = Float.min l1 l2 in
        let cached =
          match (cached2, cached1) with
          | Some t, _ | _, Some t -> t
          | None, None ->
            violation "%s: cached trace failed to load back" name;
            fresh
        in
        let fresh_r = Machine.run_flat cfg fresh in
        let cached_r = Machine.run_flat cfg cached in
        let same = fresh_r = cached_r in
        if not same then
          violation "%s: simulating the cached trace diverges from the fresh walk" name;
        let n = Mcsim_isa.Flat_trace.length fresh in
        Printf.printf
          "  %-9s gen %.3fs (%.1fM instr/s)  mmap load %.3fs (%.1fM instr/s)  \
           speedup %.1fx  IPC %.4f%s\n"
          name gen_s
          (float_of_int n /. Float.max 1e-9 gen_s /. 1e6)
          load_s
          (float_of_int n /. Float.max 1e-9 load_s /. 1e6)
          (gen_s /. Float.max 1e-9 load_s)
          cached_r.Machine.ipc
          (if same then "" else "  [DIVERGED]");
        (name, n, bytes, gen_s, load_s, cached_r, same))
      Spec92.all
  in
  remove_tree dir;
  let total proj = List.fold_left (fun acc e -> acc +. proj e) 0.0 entries in
  let overall_speedup =
    total (fun (_, _, _, g, _, _, _) -> g)
    /. Float.max 1e-9 (total (fun (_, _, _, _, l, _, _) -> l))
  in
  let identical = List.for_all (fun (_, _, _, _, _, _, same) -> same) entries in
  if overall_speedup < 3.0 then
    violation "trace-store reload is under the 3x bar (%.2fx overall)" overall_speedup;
  print_newline ();
  Printf.printf "  overall speedup %.2fx (target: >= 3x), cached results %s\n"
    overall_speedup
    (if identical then "identical" else "DIVERGED");
  write_trace_json entries ~identical ~overall_speedup

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  section "Microbenchmarks - cost of the simulator's building blocks (Bechamel)";
  let open Bechamel in
  let predictor = Mcsim_branch.Mcfarling.create () in
  let pc = ref 0 in
  let bench_predictor () =
    pc := (!pc + 13) land 0xfff;
    let taken = !pc land 3 <> 0 in
    let _, tok = Mcsim_branch.Mcfarling.predict predictor ~pc:!pc in
    Mcsim_branch.Mcfarling.note_outcome predictor ~taken;
    Mcsim_branch.Mcfarling.train predictor tok ~taken
  in
  let cache = Mcsim_cache.Cache.create Mcsim_cache.Cache.default_config in
  let cache_cycle = ref 0 in
  let bench_cache () =
    incr cache_cycle;
    ignore
      (Mcsim_cache.Cache.access cache ~cycle:!cache_cycle
         ~addr:(!cache_cycle * 40 land 0x3ffff) ~write:false)
  in
  let asg = Mcsim_cluster.Assignment.create ~num_clusters:2 () in
  let add =
    Mcsim_isa.Instr.make ~op:Mcsim_isa.Op_class.Int_other
      ~srcs:[ Mcsim_isa.Reg.int_reg 4; Mcsim_isa.Reg.int_reg 1 ]
      ~dst:(Some (Mcsim_isa.Reg.int_reg 2))
  in
  let bench_plan () = ignore (Mcsim_cluster.Distribution.plan asg add) in
  let gcc = Spec92.program Spec92.Gcc1 in
  let profile = Mcsim_trace.Walker.profile gcc in
  let native =
    Mcsim_compiler.Pipeline.compile ~profile ~scheduler:Mcsim_compiler.Pipeline.Sched_none gcc
  in
  let small_trace =
    Mcsim_trace.Walker.trace ~max_instrs:2_000 native.Mcsim_compiler.Pipeline.mach
  in
  let bench_machine_single () = ignore (Machine.run (Machine.single_cluster ()) small_trace) in
  let bench_machine_dual () = ignore (Machine.run (Machine.dual_cluster ()) small_trace) in
  let bench_local_scheduler () =
    ignore (Mcsim_compiler.Local_scheduler.partition gcc profile)
  in
  let bench_regalloc () =
    ignore (Mcsim_compiler.Regalloc.allocate gcc (Mcsim_compiler.Partition.none gcc))
  in
  let bench_trace_walk () =
    ignore (Mcsim_trace.Walker.trace ~max_instrs:2_000 native.Mcsim_compiler.Pipeline.mach)
  in
  let tests =
    Test.make_grouped ~name:"mcsim"
      [ Test.make ~name:"predictor predict+train" (Staged.stage bench_predictor);
        Test.make ~name:"cache access" (Staged.stage bench_cache);
        Test.make ~name:"distribution plan" (Staged.stage bench_plan);
        Test.make ~name:"machine: 2k-instr trace, single" (Staged.stage bench_machine_single);
        Test.make ~name:"machine: 2k-instr trace, dual" (Staged.stage bench_machine_dual);
        Test.make ~name:"local scheduler on gcc1" (Staged.stage bench_local_scheduler);
        Test.make ~name:"graph coloring on gcc1" (Staged.stage bench_regalloc);
        Test.make ~name:"trace walk, 2k instrs" (Staged.stage bench_trace_walk) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if fast then 0.25 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with Some [ v ] -> v | Some _ | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let fmt ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
    else Printf.sprintf "%8.1f ns" ns
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-40s %s/run\n" name (fmt ns))
    (List.sort compare !rows)

let finish () =
  print_newline ();
  match !violations with
  | [] -> print_endline "done."
  | vs ->
    Printf.printf "done, with %d violation(s):\n" (List.length vs);
    List.iter (fun m -> Printf.printf "  - %s\n" m) (List.rev vs);
    exit 1

let () =
  print_endline "mcsim benchmark harness - reproducing the evaluation of";
  print_endline "\"The Multicluster Architecture: Reducing Cycle Time Through Partitioning\"";
  print_endline "(Farkas, Chow, Jouppi, Vranesic; MICRO-30, 1997)";
  (* MCSIM_BENCH_ONLY=machine runs just the engine-comparison section —
     the CI smoke that gates on scan/wakeup equality and speed. *)
  match Sys.getenv_opt "MCSIM_BENCH_ONLY" with
  | Some "machine" ->
    engine_comparison ();
    finish ()
  | Some "trace" ->
    trace_store_bench ();
    finish ()
  | Some "durable" ->
    durable ();
    finish ()
  | Some "clusters" ->
    cluster_scaling ();
    finish ()
  | Some "steer" ->
    steer_matrix ();
    finish ()
  | Some other ->
    Printf.eprintf
      "unknown MCSIM_BENCH_ONLY=%s (known: machine, trace, durable, clusters, steer)\n"
      other;
    exit 2
  | None ->
    table1 ();
    figures_2_to_5 ();
    figure6 ();
    let rows = table2 () in
    cycle_time rows;
    four_way ();
    cluster_scaling ();
    reassignment ();
    steer_matrix ();
    sampled_simulation ();
    engine_comparison ();
    trace_store_bench ();
    ablations ();
    durable ();
    microbenchmarks ();
    finish ()

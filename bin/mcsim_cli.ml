(* Command-line front end for the multicluster simulator. *)

open Cmdliner

(* One positive-int parser for every count-like flag (-n, -j, ...): a
   malformed or non-positive value is a one-line usage error naming the
   flag, never an exception backtrace. *)
let pos_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let max_instrs_arg =
  let doc = "Committed-trace length per run." in
  Arg.(value & opt (pos_int ~what:"N") 60_000 & info [ "n"; "max-instrs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for branch outcomes and address streams." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Number of domains to fan independent simulations out over (default: the \
     number of cores). Results are identical for every value."
  in
  Arg.(value
       & opt (pos_int ~what:"JOBS") (Mcsim_util.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* A sampling policy as INTERVAL:WARMUP:DETAIL; the policy's offset seed
   is taken from --seed at the point of use. *)
let sample_conv =
  let parse s =
    match Mcsim_sampling.Sampling.policy_of_string s with
    | Ok p -> Ok p
    | Error m ->
      (* cmdliner already names the option; drop the library's prefix. *)
      let m =
        match String.index_opt m ':' with
        | Some i when String.length m > i + 2 && String.sub m 0 i = "Sampling" ->
          String.sub m (i + 2) (String.length m - i - 2)
        | _ -> m
      in
      Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Mcsim_sampling.Sampling.policy_to_string p))

let sample_arg =
  let doc =
    "Sampled simulation: replace every detailed machine run with SMARTS-style \
     systematic interval sampling under policy $(docv) (instructions per sampling \
     unit : functionally-warmed detailed-warmup prefix : measured suffix, e.g. \
     25000:2000:2000). Cycle counts become extrapolations from the sampled mean CPI."
  in
  Arg.(value & opt (some sample_conv) None & info [ "sample" ] ~docv:"I:W:D" ~doc)

(* Expected library failures (cycle-limit guard, config and sampling
   validation, unreadable files, stale checkpoints) are user errors: one
   line on stderr and exit 1, never a backtrace. *)
let wrap = Mcsim.Cli_errors.wrap

module Json = Mcsim_obs.Json

let nonneg_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%s must be a non-negative integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let retries_arg =
  let doc =
    "Retry each failed simulation unit up to $(docv) more times (with a deterministic \
     doubling backoff) before declaring it permanently failed."
  in
  Arg.(value & opt (nonneg_int ~what:"RETRIES") 0 & info [ "retries" ] ~docv:"N" ~doc)

(* Only table2, run and sample record the command.json that
   `mcsim resume` reads back; other sweeps are finished by a rerun. *)
let checkpoint_arg ~resumable =
  let doc =
    "Durable checkpoint directory: record every completed simulation unit under \
     $(docv) and skip units already recorded there, so an interrupted run can be \
     finished by rerunning the same command"
    ^ (if resumable then " or by $(b,mcsim resume) $(docv)" else "")
    ^ ". The directory is refused if it was written by a different configuration."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let trace_cache_arg =
  let doc =
    "Trace-store directory: cache the committed trace of every (benchmark, scheduler, \
     seed, trace length) under $(docv) in the flat binary format and memory-map it \
     back on later runs instead of regenerating it. Cached traces are byte-identical \
     to freshly generated ones, so all results are unchanged. Inspect the store with \
     $(b,mcsim trace-store) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-cache" ] ~docv:"DIR" ~doc)

let metrics_out_arg =
  let doc =
    "Also write a JSON metrics snapshot (schema_version/kind/manifest/data, see the \
     Observability section of the README) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let result_cache_arg =
  let doc =
    "Result-store directory: the content-addressed global result cache (shared with \
     the $(b,mcsim serve) daemon). Completed units found under $(docv) are decoded \
     instead of recomputed — output is byte-identical — and fresh units are recorded \
     for every later sweep. Unlike --checkpoint the store is not tied to one sweep. \
     Inspect it with $(b,mcsim result-store) $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "result-cache" ] ~docv:"DIR" ~doc)

let engine_arg =
  let doc =
    "Detailed-model issue logic: $(b,wakeup) (dependence-driven, the default) or \
     $(b,scan) (the reference per-cycle queue scan). Results are identical either \
     way; the flag exists so a divergence can be bisected from the command line."
  in
  Arg.(value
       & opt (enum [ ("scan", `Scan); ("wakeup", `Wakeup) ]) `Wakeup
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let topology_conv =
  let parse s =
    match Mcsim_cluster.Interconnect.of_string s with
    | t -> Ok t
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun fmt t -> Format.pp_print_string fmt (Mcsim_cluster.Interconnect.to_string t) )

let topology_arg =
  let doc =
    "Inter-cluster interconnect: $(b,p2p) (dedicated pairwise links, the default — \
     one-cycle transfers), $(b,ring) (neighbor links only, distance is paid in \
     extra transfer cycles), or $(b,xbar) (a shared crossbar, two cycles between \
     any two distinct clusters)."
  in
  Arg.(value
       & opt topology_conv Mcsim_cluster.Interconnect.Point_to_point
       & info [ "topology" ] ~docv:"TOPO" ~doc)

let clusters_arg =
  let doc =
    "Partition the same total resources into $(docv) clusters (1, 2, 4 or 8) wired \
     as --topology, instead of the stock single/dual machine pair; overrides \
     --machine."
  in
  Arg.(value
       & opt (some (pos_int ~what:"CLUSTERS")) None
       & info [ "clusters" ] ~docv:"N" ~doc)

let steering_conv =
  let parse s =
    match Mcsim_cluster.Steering.of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun fmt p -> Format.pp_print_string fmt (Mcsim_cluster.Steering.to_string p) )

let steering_arg =
  let doc =
    "Dispatch-time steering policy: $(b,static) (follow the compile-time partition, \
     the default), $(b,modulo) (round-robin), $(b,dependence) (cluster owning the \
     producer of the first unready source), $(b,load) (least-loaded cluster), or \
     $(b,ineffectual) (predicted-dead results exiled to the last cluster). Dynamic \
     policies need a machine with at least two clusters."
  in
  Arg.(value
       & opt steering_conv Mcsim_cluster.Steering.Static
       & info [ "steering" ] ~docv:"POLICY" ~doc)

let bench_conv =
  let parse s =
    match Mcsim_workload.Spec92.of_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" s))
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Mcsim_workload.Spec92.name b))

let benchmarks_arg =
  let doc = "Benchmarks to run (default: all six)." in
  Arg.(value & opt (list bench_conv) Mcsim_workload.Spec92.all & info [ "benchmarks" ] ~doc)

let bench_pos =
  Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCHMARK")

let machine_arg =
  Arg.(value & opt (enum [ ("single", `Single); ("dual", `Dual) ]) `Dual
       & info [ "machine" ] ~doc:"Machine to run on: single or dual.")

let scheduler_arg =
  let parse s =
    match Mcsim_compiler.Pipeline.scheduler_of_name s with
    | Some sched -> Ok sched
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt s = Format.pp_print_string fmt (Mcsim_compiler.Pipeline.scheduler_name s) in
  Arg.(value & opt (conv (parse, print)) Mcsim_compiler.Pipeline.default_local
       & info [ "scheduler" ] ~doc:"none, local, round-robin, or random.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a text table.")

let four_way_arg =
  Arg.(value & flag
       & info [ "four-way" ] ~doc:"Use the four-way-issue machine pair instead of eight-way.")

module P = Mcsim_serve.Protocol
module Sweep = Mcsim_serve.Sweep

(* The one place the machine knobs become a sweep: `run`/`submit run`
   and `sample`/`submit sample` share [single_sweep], `table2`/`submit
   table2` share [table2_sweep], and `mcsim resume` decodes the same
   record from command.json. *)
let single_sweep kind =
  let make bench machine clusters topology steering scheduler max_instrs seed engine sample =
    match kind with
    | `Run ->
      P.Run { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }
    | `Sample ->
      let policy = Option.value sample ~default:Mcsim_sampling.Sampling.default_policy in
      let policy = { policy with Mcsim_sampling.Sampling.seed } in
      P.Sample
        { bench; machine; scheduler; max_instrs; seed; engine; policy; clusters; topology; steering }
  in
  let sample = match kind with `Run -> Term.const None | `Sample -> sample_arg in
  Term.(const make $ bench_pos $ machine_arg $ clusters_arg $ topology_arg $ steering_arg
        $ scheduler_arg $ max_instrs_arg $ seed_arg $ engine_arg $ sample)

let table2_sweep =
  let make max_instrs seed benchmarks four_way clusters topology steering sample engine =
    let sampling = Option.map (fun p -> { p with Mcsim_sampling.Sampling.seed }) sample in
    P.Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology; steering }
  in
  Term.(const make $ max_instrs_arg $ seed_arg $ benchmarks_arg $ four_way_arg $ clusters_arg
        $ topology_arg $ steering_arg $ sample_arg $ engine_arg)

(* The output-only flags of a batch command; the ones a command lacks
   are off. *)
let outputs ?(csv = Term.const false) ?(full = Term.const false)
    ?(profile = Term.const false) () =
  let make csv full profile metrics_out retries trace_cache result_cache =
    { Sweep.csv; full; profile; metrics_out; retries; trace_cache; result_cache }
  in
  Term.(const make $ csv $ full $ profile $ metrics_out_arg $ retries_arg $ trace_cache_arg
        $ result_cache_arg)

(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run () = print_string (Mcsim.Config.table1 ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table 1 (issue rules and latencies).")
    Term.(const run $ const ())

(* The --metrics-out snapshot: [manifest], stamped now. *)
let write_snapshot ~t_start ~kind ~manifest ?result ?profile ?sampling ?extra = function
  | None -> ()
  | Some path ->
    Mcsim_obs.Metrics.write_file path
      (Mcsim_obs.Metrics.snapshot
         ~manifest:{ manifest with Mcsim_obs.Manifest.created_unix = Unix.time () }
         ~kind ?result ?profile ?sampling ~wall_seconds:(Unix.gettimeofday () -. t_start)
         ?extra ())

(* A batch or served sweep's snapshot: its own manifest. *)
let write_metrics ~t_start ?trace_instrs ?result ?profile ?sampling ?extra sweep =
  let m = Sweep.manifest sweep in
  write_snapshot ~t_start ~kind:(P.sweep_kind sweep)
    ~manifest:
      { m with
        Mcsim_obs.Manifest.trace_instrs =
          (if trace_instrs = None then m.trace_instrs else trace_instrs) }
    ?result ?profile ?sampling ?extra

(* A cell matrix's snapshot (clusters, steer): the manifest names every
   benchmark and [cfg], the matrix's reference machine, and the rows go
   under [kind]. *)
let write_matrix_metrics ~t_start ~kind ~seed ~benchmarks ~max_instrs cfg rows =
  write_snapshot ~t_start ~kind
    ~manifest:
      (Mcsim_obs.Manifest.make ~seed
         ~benchmark:(String.concat "," (List.map Mcsim_workload.Spec92.name benchmarks))
         ~trace_instrs:max_instrs cfg)
    ~extra:[ (kind, rows) ]

let headline sweep cached =
  Printf.printf "%s:%s\n" (Sweep.describe sweep) (if cached then " (from cache)" else "")

(* The body of table2, run and sample, shared with `mcsim resume`.
   Table2.run_report owns the table2 fan-out and checkpoint layout; a
   run or sample is one unit of Sweep.execute. --profile bypasses both
   caches (profiling counters cannot be reconstructed from a stored
   result), and --full always recomputes the detailed run. *)
let batch ~jobs ~checkpoint (o : Sweep.outputs) sweep =
  let t_start = Unix.gettimeofday () in
  match sweep with
  | P.Table2 { benchmarks; max_instrs; seed; engine; sampling; _ } ->
    let single_config, dual_config = Sweep.configs sweep in
    let report =
      Mcsim.Table2.run_report ~jobs ~max_instrs ~seed ~benchmarks ~engine ?sampling
        ?single_config ~dual_config ~retries:o.retries ?checkpoint ?trace_cache:o.trace_cache
        ?result_cache:o.result_cache ()
    in
    let rows = report.Mcsim.Table2.rows in
    List.iter
      (fun (b, msg) -> Printf.eprintf "[FAILED] %s: %s\n%!" b msg)
      report.Mcsim.Table2.failed;
    if o.csv then print_string (Mcsim.Report.table2_csv rows)
    else begin
      Option.iter
        (fun p ->
          Printf.printf "(sampled: policy %s, cycle columns are extrapolations)\n"
            (Mcsim_sampling.Sampling.policy_to_string p))
        sampling;
      print_string (Mcsim.Table2.render rows);
      print_newline ();
      List.iter
        (fun (ok, what) -> Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
        (Mcsim.Table2.shape_holds rows)
    end;
    write_metrics ~t_start ~extra:[ ("table2", Mcsim.Report.table2_json rows) ] sweep
      o.metrics_out;
    if report.Mcsim.Table2.failed <> [] then
      failwith
        (Printf.sprintf "%d of %d benchmarks failed permanently%s"
           (List.length report.Mcsim.Table2.failed)
           (List.length benchmarks)
           (match checkpoint with
           | Some dir ->
             Printf.sprintf
               "; completed units are saved under %s — rerun or 'mcsim resume %s' to retry"
               dir dir
           | None -> "; rerun with --checkpoint DIR to make progress durable"))
  | P.Run { engine; _ } ->
    let profile =
      if o.profile then Some (Mcsim_cluster.Machine.profile_counters ()) else None
    in
    let checkpoint, result_cache =
      if o.profile then (None, None) else (checkpoint, o.result_cache)
    in
    let (r, trace_instrs), cached =
      Sweep.execute ?checkpoint ?result_cache ?trace_cache:o.trace_cache ?profile
        ~retries:o.retries ~decode:Sweep.run_of_json sweep
    in
    headline sweep cached;
    Printf.printf "  %d instructions in %d cycles (IPC %.2f)\n" r.Mcsim_cluster.Machine.retired
      r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc;
    Printf.printf "  branch accuracy %.3f, d-cache miss rate %.3f, i-cache miss rate %.4f\n"
      r.Mcsim_cluster.Machine.branch_accuracy r.Mcsim_cluster.Machine.dcache_miss_rate
      r.Mcsim_cluster.Machine.icache_miss_rate;
    Printf.printf "  %d single- and %d dual-distributed, %d replays\n"
      r.Mcsim_cluster.Machine.single_distributed r.Mcsim_cluster.Machine.dual_distributed
      r.Mcsim_cluster.Machine.replays;
    print_endline "  counters:";
    List.iter
      (fun (k, v) -> Printf.printf "    %-28s %d\n" k v)
      r.Mcsim_cluster.Machine.counters;
    Option.iter
      (fun p ->
        Printf.printf "  profile (%s engine):\n" (Mcsim_obs.Manifest.engine_name engine);
        print_string (Mcsim_util.Profile_counters.render ~instrs:trace_instrs p))
      profile;
    write_metrics ~t_start ~trace_instrs ~result:r ?profile sweep o.metrics_out
  | P.Sample { bench; scheduler; max_instrs; seed; engine; policy; clusters; _ } ->
    let s, cached =
      Sweep.execute ?checkpoint ?result_cache:o.result_cache ?trace_cache:o.trace_cache
        ~retries:o.retries
        ~decode:(Sweep.sample_of_json ~seed:policy.Mcsim_sampling.Sampling.seed)
        sweep
    in
    write_metrics ~t_start ~trace_instrs:s.Mcsim_sampling.Sampling.trace_instrs ~sampling:s
      sweep o.metrics_out;
    if o.csv then print_string (Mcsim.Report.sampling_csv s)
    else begin
      headline sweep cached;
      print_string (Mcsim_sampling.Sampling.render s);
      if o.full then begin
        let trace =
          Sweep.flat_trace ?trace_cache:o.trace_cache ?clusters ~scheduler ~seed ~max_instrs
            bench
        in
        let r = Mcsim_cluster.Machine.run_flat ~engine (snd (Sweep.configs sweep)) trace in
        let err =
          Float.abs (s.Mcsim_sampling.Sampling.mean_ipc -. r.Mcsim_cluster.Machine.ipc)
          /. r.Mcsim_cluster.Machine.ipc
        in
        Printf.printf "  full run: IPC %.4f in %d cycles; sampling error %.2f%%%s\n"
          r.Mcsim_cluster.Machine.ipc r.Mcsim_cluster.Machine.cycles (100.0 *. err)
          (if err <= Mcsim_sampling.Sampling.ci_rel s then " (within the CI)" else "")
      end
    end

(* Record how to finish the sweep before starting it, so `mcsim resume
   DIR` works even if this process is killed immediately. When the
   directory already holds a command record, keep it until this
   invocation succeeds: a stale invocation refused by the identity
   check must not clobber the record the original sweep resumes from.
   On success the record is refreshed, so compatible reruns that change
   output flags (say, adding --metrics-out) resume with the new ones. *)
let batch_cmd name ~doc sweep outputs jobs =
  let run sweep o jobs checkpoint =
    wrap @@ fun () ->
    match checkpoint with
    | None -> batch ~jobs ~checkpoint o sweep
    | Some dir ->
      let write () = Mcsim.Checkpoint.write_command ~dir (Sweep.command_json sweep o) in
      let existing = Sys.file_exists (Filename.concat dir "command.json") in
      if not existing then write ();
      batch ~jobs ~checkpoint o sweep;
      if existing then write ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ sweep $ outputs $ jobs $ checkpoint_arg ~resumable:true)

let table2_cmd =
  batch_cmd "table2" ~doc:"Run the Table-2 experiment (none/local vs single-cluster)."
    table2_sweep (outputs ~csv:csv_arg ()) jobs_arg

let run_cmd =
  let profile_arg =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Report per-stage visit/work counters and minor-heap allocation \
                   for the simulation.")
  in
  batch_cmd "run" ~doc:"Run one benchmark and dump all counters." (single_sweep `Run)
    (outputs ~profile:profile_arg ()) (Term.const 1)

let sample_cmd =
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Also run the full detailed simulation and report the sampling error.")
  in
  batch_cmd "sample"
    ~doc:"Sampled simulation of one benchmark (optionally vs the full detailed run)."
    (single_sweep `Sample) (outputs ~csv:csv_arg ~full:full_arg ()) (Term.const 1)

(* `mcsim resume DIR`: reread the command.json written by a previous
   --checkpoint invocation and re-dispatch the same command against the
   same directory. Completed units load from disk; only missing ones
   recompute, so the output is byte-identical to an uninterrupted run. *)
let resume_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"Checkpoint directory of an interrupted run.")
  in
  let resume_retries_arg =
    Arg.(value & opt (some (nonneg_int ~what:"RETRIES")) None
         & info [ "retries" ] ~docv:"N"
             ~doc:"Override the recorded per-unit retry budget for this resume.")
  in
  let resume dir retries =
    wrap @@ fun () ->
    let fields = Mcsim.Checkpoint.read_command ~dir in
    let sweep, o =
      try Sweep.of_command fields
      with Failure m -> failwith (Printf.sprintf "checkpoint %s: command.json: %s" dir m)
    in
    let o = match retries with Some retries -> { o with Sweep.retries } | None -> o in
    batch ~jobs:(Mcsim_util.Pool.default_jobs ()) ~checkpoint:(Some dir) o sweep
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Finish an interrupted --checkpoint run (table2, run or sample): completed \
             units are loaded from the directory, only missing ones recompute.")
    Term.(const resume $ dir_pos $ resume_retries_arg)

let scenarios_cmd =
  let run () =
    List.iter
      (fun o -> print_string (Mcsim.Scenario.render o); print_newline ())
      (Mcsim.Scenario.all ())
  in
  Cmd.v (Cmd.info "scenarios" ~doc:"Replay the five execution scenarios (Figures 2-5).")
    Term.(const run $ const ())

let figure6_cmd =
  let run () = print_string (Mcsim.Figure6.render (Mcsim.Figure6.run ())) in
  Cmd.v (Cmd.info "figure6" ~doc:"Walk the local scheduler through the Figure-6 example.")
    Term.(const run $ const ())

let cycle_time_cmd =
  let run max_instrs seed benchmarks jobs =
    wrap @@ fun () ->
    print_string (Mcsim.Cycle_time.break_even_example ());
    print_newline ();
    let rows = Mcsim.Table2.run ~jobs ~max_instrs ~seed ~benchmarks () in
    let net = Mcsim.Cycle_time.analyse rows in
    print_string (Mcsim.Cycle_time.render net);
    List.iter
      (fun (ok, what) -> Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
      (Mcsim.Cycle_time.conclusion_holds net)
  in
  Cmd.v (Cmd.info "cycle-time" ~doc:"The net-performance analysis of paper sections 4.2 and 5.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ jobs_arg)

let workloads_cmd =
  let run () =
    List.iter
      (fun b ->
        let prog = Mcsim_workload.Spec92.program b in
        Printf.printf "%-9s %4d blocks %4d live ranges %5d static instrs\n  %s\n"
          (Mcsim_workload.Spec92.name b)
          (Mcsim_ir.Program.num_blocks prog)
          (Mcsim_ir.Program.num_lrs prog)
          (Mcsim_ir.Program.num_static_instrs prog)
          (Mcsim_workload.Spec92.description b))
      Mcsim_workload.Spec92.all
  in
  Cmd.v (Cmd.info "workloads" ~doc:"Describe the six SPEC92-like synthetic benchmarks.")
    Term.(const run $ const ())

(* `mcsim trace-store DIR` and `mcsim result-store DIR`: check the
   directory, prune on request, then list every entry, validated, with
   the totals. A corrupt entry lists as INVALID — the store itself
   treats it as a miss. [columns] are (header, alignment, cell);
   [totals] renders the counts that lead the totals line. *)
let store_cmd name ~doc ~dir_doc ~what ~nothing ~open_ ~prune ~entries ~columns ~bytes
    ~valid ~totals ~invalid_note =
  let dir_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:dir_doc) in
  let keep_arg =
    Arg.(value & opt (some (nonneg_int ~what:"N")) None
         & info [ "prune-keep-latest" ] ~docv:"N"
             ~doc:"Before listing, delete all but the $(docv) most recently used entries \
                   — the knob that bounds on-disk cache growth.")
  in
  let run dir keep =
    wrap @@ fun () ->
    if not (Sys.file_exists dir) then
      failwith (Printf.sprintf "%s %s: no such directory" what dir);
    let store = open_ ~dir in
    Option.iter (fun n -> List.iter (Printf.printf "pruned %s\n") (prune store n)) keep;
    match entries store with
    | [] -> Printf.printf "%s: no cached %s\n" dir nothing
    | es ->
      print_string
        (Mcsim_util.Text_table.render
           ~aligns:(Array.of_list (List.map (fun (_, a, _) -> a) columns))
           (List.map (fun (h, _, _) -> h) columns
           :: List.map (fun e -> List.map (fun (_, _, cell) -> cell e) columns) es));
      let invalid = List.length (List.filter (fun e -> not (valid e)) es) in
      Printf.printf "%s, %d bytes%s\n" (totals es)
        (List.fold_left (fun a e -> a + bytes e) 0 es)
        (if invalid = 0 then "" else Printf.sprintf " (%d invalid — %s)" invalid invalid_note)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ dir_pos $ keep_arg)

let count n noun = Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")
let status ok = if ok then "ok" else "INVALID"

(* Each trace is validated (header + payload digest), so a corrupt file
   shows up as invalid — the simulator itself would silently regenerate
   it. *)
let trace_store_cmd =
  let module T = Mcsim.Trace_store in
  store_cmd "trace-store"
    ~doc:"List and validate the cached binary traces in a --trace-cache directory."
    ~dir_doc:"Trace-store directory (as passed to --trace-cache)." ~what:"trace store"
    ~nothing:"traces" ~open_:T.open_ ~prune:T.prune_keep_latest ~entries:T.entries
    ~columns:
      Mcsim_util.Text_table.
        [ ("file", Left, fun e -> e.T.e_file);
          ("instrs", Right, fun e -> if e.T.e_valid then string_of_int e.T.e_instrs else "-");
          ("bytes", Right, fun e -> string_of_int e.T.e_bytes);
          ("status", Left, fun e -> status e.T.e_valid) ]
    ~bytes:(fun e -> e.T.e_bytes) ~valid:(fun e -> e.T.e_valid)
    ~totals:(fun es ->
      Printf.sprintf "%s, %d instructions" (count (List.length es) "trace")
        (List.fold_left (fun a e -> a + e.T.e_instrs) 0 es))
    ~invalid_note:"will be regenerated on use"

let result_store_cmd =
  let module R = Mcsim.Result_store in
  store_cmd "result-store"
    ~doc:"List and validate the cached unit results in a --result-cache directory."
    ~dir_doc:"Result-store directory (as passed to --result-cache or mcsim serve)."
    ~what:"result store" ~nothing:"results" ~open_:R.open_ ~prune:R.prune_keep_latest
    ~entries:R.entries
    ~columns:
      Mcsim_util.Text_table.
        [ ("file", Left, fun e -> e.R.e_file);
          ("digest", Left, fun e -> e.R.e_digest);
          ("kind", Left, fun e -> e.R.e_kind);
          ("benchmark", Left, fun e -> e.R.e_benchmark);
          ("bytes", Right, fun e -> string_of_int e.R.e_bytes);
          ("status", Left, fun e -> status e.R.e_valid) ]
    ~bytes:(fun e -> e.R.e_bytes) ~valid:(fun e -> e.R.e_valid)
    ~totals:(fun es -> count (List.length es) "result")
    ~invalid_note:"treated as misses"

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file (default: $(b,BENCHMARK.trace.json)).")
  in
  let timeline_arg =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Also print the ASCII pipeline timeline of the same run.")
  in
  let counter_period_arg =
    Arg.(value & opt (pos_int ~what:"PERIOD") 8
         & info [ "counter-period" ] ~docv:"PERIOD"
             ~doc:"Cycle stride between occupancy counter samples.")
  in
  let run bench machine scheduler max_instrs seed engine out timeline counter_period =
    wrap @@ fun () ->
    let trace = Sweep.flat_trace ~scheduler ~seed ~max_instrs bench in
    let cfg = Sweep.config ~what:"trace" machine in
    let tx = Mcsim_obs.Trace_export.create ~counter_period cfg in
    let tl = Mcsim.Timeline.create () in
    let on_event e =
      Mcsim_obs.Trace_export.observer tx e;
      if timeline then Mcsim.Timeline.observer tl e
    in
    let r =
      Mcsim_cluster.Machine.run_flat ~engine ~on_event
        ~on_occupancy:(Mcsim_obs.Trace_export.occupancy_observer tx)
        ~occupancy_period:counter_period cfg trace
    in
    let manifest =
      Mcsim_obs.Manifest.make ~created_unix:(Unix.time ()) ~engine ~seed
        ~benchmark:(Mcsim_workload.Spec92.name bench)
        ~scheduler:(Mcsim_compiler.Pipeline.scheduler_name scheduler)
        ~trace_instrs:(Mcsim_isa.Flat_trace.length trace) cfg
    in
    let path =
      match out with
      | Some p -> p
      | None -> Mcsim_workload.Spec92.name bench ^ ".trace.json"
    in
    Mcsim_obs.Trace_export.write_file ~manifest path tx;
    Printf.printf "wrote %s: %d instructions in %d cycles (IPC %.2f)\n" path
      r.Mcsim_cluster.Machine.retired r.Mcsim_cluster.Machine.cycles
      r.Mcsim_cluster.Machine.ipc;
    print_endline "open it at https://ui.perfetto.dev or chrome://tracing";
    if timeline then begin
      print_newline ();
      print_string (Mcsim.Timeline.render tl)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one benchmark and write a Chrome-trace (Perfetto) JSON of the pipeline.")
    Term.(const run $ bench_pos $ machine_arg $ scheduler_arg $ max_instrs_arg $ seed_arg
          $ engine_arg $ out_arg $ timeline_arg $ counter_period_arg)

let clusters_cmd =
  let run max_instrs seed benchmarks jobs metrics_out =
    wrap @@ fun () ->
    let t_start = Unix.gettimeofday () in
    let rows = Mcsim.Cluster_count.run ~jobs ~max_instrs ~seed ~benchmarks () in
    print_string (Mcsim.Cluster_count.render rows);
    write_matrix_metrics ~t_start ~kind:"clusters" ~seed ~benchmarks ~max_instrs
      (Mcsim.Cluster_count.config_for 1) (Mcsim.Cluster_count.rows_json rows) metrics_out
  in
  Cmd.v
    (Cmd.info "clusters"
       ~doc:"Cluster-count x interconnect-topology scaling: 1/2/4/8 clusters, each \
             multi-cluster point wired p2p, ring and xbar.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ jobs_arg
          $ metrics_out_arg)

(* `mcsim steer`: the scheduler x steering x cluster-count matrix. Every
   policy (including static, the baseline) runs at 2/4/8 clusters under
   both the no-effort and the local compile-time schedulers. *)
let steer_cmd =
  let run max_instrs seed benchmarks topology csv jobs retries checkpoint metrics_out =
    wrap @@ fun () ->
    let t_start = Unix.gettimeofday () in
    let rows =
      Mcsim.Steer.run ~jobs ~max_instrs ~seed ~benchmarks ~topology ~retries ?checkpoint ()
    in
    if csv then print_string (Mcsim.Steer.csv rows)
    else print_string (Mcsim.Steer.render rows);
    write_matrix_metrics ~t_start ~kind:"steer" ~seed ~benchmarks ~max_instrs
      (Mcsim_cluster.Machine.config_for_clusters ~topology 2) (Mcsim.Steer.rows_json rows)
      metrics_out
  in
  Cmd.v
    (Cmd.info "steer"
       ~doc:"Compile-time scheduler x dispatch-time steering policy x cluster-count \
             matrix: every steering policy at 2/4/8 clusters, against code compiled \
             with no partitioning effort and with the paper's local scheduler.")
    Term.(const run $ max_instrs_arg $ seed_arg $ benchmarks_arg $ topology_arg $ csv_arg
          $ jobs_arg $ retries_arg $ checkpoint_arg ~resumable:false $ metrics_out_arg)

let reassign_cmd =
  let run jobs =
    wrap @@ fun () -> print_string (Mcsim.Reassign.render (Mcsim.Reassign.run ~jobs ()))
  in
  Cmd.v
    (Cmd.info "reassign"
       ~doc:"Demonstrate dynamic register reassignment (paper section 6).")
    Term.(const run $ jobs_arg)

let ablate_cmd =
  let names = List.map Mcsim.Ablation.kind_name Mcsim.Ablation.kinds in
  let sweep_arg =
    Arg.(required
         & pos 0 (some (enum (List.combine names Mcsim.Ablation.kinds))) None
         & info [] ~docv:"SWEEP")
  in
  let bench_pos1 =
    Arg.(required & pos 1 (some bench_conv) None & info [] ~docv:"BENCHMARK")
  in
  let run kind bench max_instrs jobs =
    wrap @@ fun () ->
    print_string (Mcsim.Ablation.render (Mcsim.Ablation.run ~jobs ~max_instrs kind bench))
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:("Design-space sweeps: " ^ String.concat ", " names ^ "."))
    Term.(const run $ sweep_arg $ bench_pos1 $ max_instrs_arg $ jobs_arg)

let compile_cmd =
  let run bench scheduler seed =
    wrap @@ fun () ->
    let prog = Mcsim_workload.Spec92.program bench in
    let profile = Mcsim_trace.Walker.profile ~seed prog in
    let c = Mcsim_compiler.Pipeline.compile ~profile ~scheduler prog in
    print_string (Mcsim_compiler.Mach_text.print c.Mcsim_compiler.Pipeline.mach)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a benchmark and print the machine program in textual form.")
    Term.(const run $ bench_pos $ scheduler_arg $ seed_arg)

let simulate_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A machine program in the textual format (see the compile command).")
  in
  let run file machine max_instrs seed =
    wrap @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    match Mcsim_compiler.Mach_text.parse text with
    | Error e ->
      prerr_endline ("parse error: " ^ e);
      exit 1
    | Ok m ->
      let trace = Mcsim_trace.Walker.trace_flat ~seed ~max_instrs m in
      let r =
        Mcsim_cluster.Machine.run_flat (Sweep.config ~what:"simulate" machine) trace
      in
      Printf.printf "%s: %d instructions, %d cycles (IPC %.2f), %d dual-distributed, %d replays\n"
        m.Mcsim_compiler.Mach_prog.name r.Mcsim_cluster.Machine.retired
        r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc
        r.Mcsim_cluster.Machine.dual_distributed r.Mcsim_cluster.Machine.replays
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Parse a textual machine program and run it.")
    Term.(const run $ file_arg $ machine_arg $ max_instrs_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* The sweep service: `mcsim serve` and `mcsim submit`.                 *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"SOCKET"
           ~doc:"Unix-domain socket path of the sweep service (as passed to \
                 $(b,mcsim serve)).")

let serve_cmd =
  let socket_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path to listen on.")
  in
  let stop_arg =
    Arg.(value & flag
         & info [ "stop" ]
             ~doc:"Ask the server listening on $(i,SOCKET) to shut down, instead of \
                   starting one.")
  in
  let run socket stop jobs retries result_cache trace_cache =
    wrap @@ fun () ->
    if stop then begin
      let c = Mcsim_serve.Client.connect ~socket_path:socket in
      Fun.protect
        ~finally:(fun () -> Mcsim_serve.Client.close c)
        (fun () -> Mcsim_serve.Client.stop_server c);
      print_endline "server stopping"
    end
    else
      Mcsim_serve.Server.run
        { (Mcsim_serve.Server.default ~socket_path:socket) with
          jobs;
          retries;
          result_cache;
          trace_cache;
          log = Some (fun s -> Printf.printf "[serve] %s\n%!" s) }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived sweep service on a Unix-domain socket: submitted sweeps are \
             split into units, answered from the shared result cache when possible, \
             and identical in-flight units from concurrent clients are computed once \
             (see $(b,mcsim submit)).")
    Term.(const run $ socket_pos $ stop_arg $ jobs_arg $ retries_arg $ result_cache_arg
          $ trace_cache_arg)

let progress_on_unit ~index ~total ~label ~source ~data:_ =
  Printf.eprintf "  unit %d/%d %s: %s\n%!" (index + 1) total label source

let served_line (s : Mcsim_serve.Protocol.served) =
  Printf.sprintf "served %d unit(s): %d cached, %d computed, %d coalesced"
    s.Mcsim_serve.Protocol.s_units s.Mcsim_serve.Protocol.s_cached
    s.Mcsim_serve.Protocol.s_computed s.Mcsim_serve.Protocol.s_coalesced

let with_client socket f =
  let c = Mcsim_serve.Client.connect ~socket_path:socket in
  Fun.protect ~finally:(fun () -> Mcsim_serve.Client.close c) (fun () -> f c)

let submit_table2_cmd =
  let run socket sweep csv metrics_out =
    wrap @@ fun () ->
    let t_start = Unix.gettimeofday () in
    with_client socket @@ fun c ->
    let result, served = Mcsim_serve.Client.submit ~on_unit:progress_on_unit c sweep in
    let rows =
      match Mcsim_serve.Client.rows_of_result result with
      | Some rows -> rows
      | None -> failwith "malformed table2 result from server"
    in
    if csv then print_string (Mcsim.Report.table2_csv rows)
    else begin
      print_string (Mcsim.Table2.render rows);
      print_newline ()
    end;
    prerr_endline (served_line served);
    write_metrics ~t_start ~extra:[ ("table2", Mcsim.Report.table2_json rows) ] sweep
      metrics_out
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Submit a Table-2 sweep to the service (one unit per row).")
    Term.(const run $ socket_arg $ table2_sweep $ csv_arg $ metrics_out_arg)

let submit_single_cmd kind =
  let run socket sweep =
    wrap @@ fun () ->
    with_client socket @@ fun c ->
    let result, served = Mcsim_serve.Client.submit ~on_unit:progress_on_unit c sweep in
    let malformed () =
      failwith (Printf.sprintf "malformed %s result from server" (P.sweep_kind sweep))
    in
    (match sweep with
    | P.Run _ -> (
      match Sweep.run_of_json result with
      | Some (r, n) ->
        Printf.printf "%s (served):\n" (Sweep.describe sweep);
        Printf.printf "  %d instructions in %d cycles (IPC %.2f), %d replays\n" n
          r.Mcsim_cluster.Machine.cycles r.Mcsim_cluster.Machine.ipc
          r.Mcsim_cluster.Machine.replays
      | None -> malformed ())
    | P.Sample { policy; _ } -> (
      match Sweep.sample_of_json ~seed:policy.Mcsim_sampling.Sampling.seed result with
      | Some s -> print_string (Mcsim_sampling.Sampling.render s)
      | None -> malformed ())
    | P.Table2 _ -> assert false);
    prerr_endline (served_line served)
  in
  let name, doc =
    match kind with
    | `Run -> ("run", "Submit one detailed run to the service.")
    | `Sample -> ("sample", "Submit one sampled estimate to the service.")
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg $ single_sweep kind)

let submit_stats_cmd =
  let run socket =
    wrap @@ fun () ->
    with_client socket @@ fun c ->
    print_endline (Json.to_string (Mcsim_serve.Client.stats c))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print the server's counters (requests, cache hits, coalesced units, ...) \
             as a metrics snapshot.")
    Term.(const run $ socket_arg)

let submit_cmd =
  Cmd.group
    (Cmd.info "submit" ~doc:"Submit sweeps to a running mcsim serve daemon.")
    [ submit_table2_cmd; submit_single_cmd `Run; submit_single_cmd `Sample;
      submit_stats_cmd ]

let () =
  let doc = "Multicluster architecture simulator (Farkas, Chow, Jouppi & Vranesic, MICRO-30)." in
  let info = Cmd.info "mcsim" ~version:Mcsim_obs.Manifest.mcsim_version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ table1_cmd; table2_cmd; scenarios_cmd; figure6_cmd; cycle_time_cmd; workloads_cmd;
            run_cmd; sample_cmd; resume_cmd; trace_cmd; trace_store_cmd; result_store_cmd;
            serve_cmd; submit_cmd; ablate_cmd; reassign_cmd; clusters_cmd; steer_cmd;
            compile_cmd; simulate_cmd ]))
(* Writes mcbench/expected.json: the simulated results every workload
   checks its outputs against, for every walker seed of the family. The
   references come from other paths than the workloads take: the scan
   engine for detail, serial (-j1) sweeps for sweep, and in-process
   computation for the served units.

   Regenerate (only when the model changes on purpose) with
     dune exec --root . ./mcbench/bin/main.exe -- --write-expected *)

open Bench

let seeds = List.init family (fun i -> i + 1)

let detail seed =
  Json.Obj
    (List.map
       (fun b ->
         let scheduler = Pipeline.default_local in
         let tr2 = trace ~seed ~max_instrs:detail_instrs ~scheduler b in
         let tr4 = trace ~clusters:4 ~seed ~max_instrs:detail_instrs ~scheduler b in
         let dual = Machine.dual_cluster () in
         ( Spec92.name b,
           Json.Obj
             [ ("dual", result_summary (Machine.run_flat ~engine:`Scan dual tr2));
               ("ring4", result_summary (Machine.run_flat ~engine:`Scan (ring4 ()) tr4));
               ("sampled", sampled_summary (Sampling.run_flat ~engine:`Scan dual tr2)) ] ))
       Spec92.all)

let sweep seed =
  let rows = Mcsim.Table2.run ~jobs:1 ~max_instrs:table2_instrs ~seed () in
  let b = Sweep.steer_bench in
  let steer = Mcsim.Steer.run ~jobs:1 ~max_instrs:steer_instrs ~seed ~benchmarks:[ b ] () in
  (* Detailed instructions a cold round simulates: the Table-2 single,
     none and local runs, and every steer cell's full trace. *)
  let table2_instrs =
    Mcsim.Experiment.run_many ~jobs:1 ~max_instrs:table2_instrs ~seed
      (List.map Spec92.program Spec92.all)
    |> List.fold_left
         (fun acc (c : Mcsim.Experiment.comparison) ->
           List.fold_left
             (fun acc (r : Mcsim.Experiment.run) -> acc + r.Mcsim.Experiment.dual.Machine.retired)
             (acc + c.Mcsim.Experiment.single.Machine.retired)
             c.Mcsim.Experiment.runs)
         0
  in
  let steer_instrs =
    List.fold_left
      (fun acc (sched, clusters, _) ->
        acc
        + Mcsim_isa.Flat_trace.length
            (trace ~clusters ~seed ~max_instrs:steer_instrs ~scheduler:sched b))
      0 Mcsim.Steer.matrix_points
  in
  Json.Obj
    [ ("rows", Sweep.rows_json rows);
      ("steer", Mcsim.Steer.rows_json steer);
      ("sim_instrs", Json.Int (table2_instrs + steer_instrs)) ]

let serve () =
  let entries reqs =
    List.map (fun r -> (r.Serve.label, Json.String (Serve.in_process r.Serve.sweep))) reqs
  in
  Json.Obj
    (List.map
       (fun seed -> (string_of_int seed, Json.Obj (entries (Serve.working_set ~seed))))
       seeds
    @ [ ("fresh", Json.Obj (entries (Serve.fresh_units ()))) ])

let write () =
  let per_seed f =
    Json.Obj
      (List.map
         (fun seed ->
           Printf.eprintf "seed %d\n%!" seed;
           (string_of_int seed, f seed))
         seeds)
  in
  let j =
    Json.Obj
      [ ("family", Json.Int family);
        ("detail", per_seed detail);
        ("sweep", per_seed sweep);
        ("serve", serve ()) ]
  in
  Json.write_file expected_path j "\n"

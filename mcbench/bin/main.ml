(* mcbench: the benchmark of mcsim, end to end and layer by layer.

     main.exe --workload detail|sweep|serve --seed N --seconds S --trace 0|1

   With --trace 0 the workload runs untraced for S seconds after its
   set-up, and the last line of output is a JSON object with every
   end-to-end metric. With --trace 1 it runs the traced pass instead:
   spans around every layer call of all three workloads, one untraced
   round of each for the overhead, and every per-layer metric. Outputs
   are checked against mcbench/expected.json either way; see
   mcbench/README.md for the metrics and why the workloads were
   chosen. *)

open Bench

let workloads = [ "detail"; "sweep"; "serve" ]

let json_metrics ms =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
       ms)

let print_result metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %14.6g %s\n" n v u) metrics;
  Option.iter (fun e -> Printf.printf "first failure: %s\n" e) tally.first_error;
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [ ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Int tally.attempted);
            ("failed", Json.Int tally.failed);
            ("metrics", json_metrics metrics) ]))

let end_to_end ~workload ~seed ~seconds =
  let ph =
    match workload with
    | "detail" -> Detail.run_timed ~seed ~seconds
    | "sweep" -> Sweep.run_timed ~seed ~seconds
    | _ -> Serve.run_timed ~seed ~seconds
  in
  let rss = peak_rss_mb () in
  let sample_err, table2_err = accuracy () in
  let rounds = ph.rounds in
  let reqs = List.concat_map (fun r -> r.requests) rounds in
  let ms = List.map (fun (_, t) -> 1e3 *. t) reqs in
  let wall = Stat.median (List.map (fun r -> r.wall) rounds) in
  let per_round f =
    float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rounds)
    /. float_of_int (List.length rounds)
  in
  Printf.printf "%s: seed %d, %d rounds, %d requests (tail = p%g of %d), set-ups %s s\n"
    workload seed (List.length rounds) (List.length ms) ph.tail_pct (List.length ms)
    (String.concat " " (List.map (Printf.sprintf "%.3f") ph.setup_s));
  Printf.printf "round walls %s s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) rounds));
  Printf.printf "host: %d cores, OCaml %s\n" (Domain.recommended_domain_count ()) Sys.ocaml_version;
  [ ("setup_s", Stat.median ph.setup_s, "s");
    ("wall_s", wall, "s");
    ("units_per_s", per_round (fun r -> r.units) /. wall, "1/s");
    ("sim_minstr_per_s", per_round (fun r -> r.instrs) /. wall /. 1e6, "Minstr/s");
    ( "request_p50_ms",
      1e3 *. Stat.median (List.map (fun r -> Stat.median (List.map snd r.requests)) rounds),
      "ms" );
    ("request_tail_ms", Stat.tail ph.tail_pct ms, "ms");
    ("peak_rss_mb", rss, "MB");
    ( "success_rate",
      float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted),
      "frac" );
    ("sample_ipc_err_pct", sample_err, "%");
    ("table2_err_pp", table2_err, "pp") ]

(* Mean span duration per layer, over every traced workload. *)
let layer_means spans =
  List.map
    (fun (name, metric) ->
      let ds =
        List.filter_map
          (fun s -> if s.Span.name = name then Some (Span.duration s) else None)
          spans
      in
      (metric, (if ds = [] then nan else 1e3 *. Stat.mean ds), "ms"))
    [ ("workload.gen", "workload.gen_ms");
      ("walker.profile", "walker.profile_ms");
      ("compiler.list_scheduler", "compiler.list_scheduler_ms");
      ("compiler.local_scheduler", "compiler.local_scheduler_ms");
      ("compiler.regalloc", "compiler.regalloc_ms");
      ("compiler.lowering", "compiler.lowering_ms");
      ("trace_store.save", "trace_store.save_ms");
      ("trace_store.find", "trace_store.find_ms");
      ("result_store.record", "result_store.record_ms");
      ("result_store.find", "result_store.find_ms") ]

(* A workload's traced pass, with its Gc.quick_stat deltas. *)
let with_gc name f =
  let g0 = Gc.quick_stat () in
  let spans, ms = f () in
  let g1 = Gc.quick_stat () in
  ( spans,
    ms
    @ [ ( name ^ ".gc.minor_collections",
          float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections),
          "count" );
        ( name ^ ".gc.major_collections",
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
          "count" );
        (name ^ ".gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words, "words") ] )

let per_layer ~seed =
  let sp = Span.create ~enabled:false () in
  let d_spans, d = with_gc "detail" (fun () -> Detail.run_traced sp ~seed) in
  let s_spans, s = with_gc "sweep" (fun () -> Sweep.run_traced sp ~seed) in
  let v_spans, v = with_gc "serve" (fun () -> Serve.run_traced sp ~seed) in
  layer_means (d_spans @ s_spans @ v_spans) @ d @ s @ v

let usage () =
  prerr_endline
    "usage: main.exe --workload detail|sweep|serve --seed N --seconds S --trace 0|1\n\
    \       main.exe --write-expected";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--write-expected" ] then Expected.write ()
  else begin
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" in
    if seconds < 1.0 || (trace <> 0 && trace <> 1) then usage ();
    (* Fails here, before any work, when the expected values are absent. *)
    ignore (Lazy.force expected);
    reset_scratch ();
    let metrics =
      if trace = 1 then per_layer ~seed else end_to_end ~workload ~seed ~seconds
    in
    remove_tree scratch_root;
    print_result metrics
  end

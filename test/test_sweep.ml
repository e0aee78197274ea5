(* Tests for the one run description (lib/serve/sweep.ml): scheduler
   names parse back, command.json records of every format version
   decode to the same sweep, cache identities stay pinned, and the batch
   executor serves a unit from its checkpoint or result cache. *)

module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Sampling = Mcsim_sampling.Sampling
module Steering = Mcsim_cluster.Steering
module Interconnect = Mcsim_cluster.Interconnect
module P = Mcsim_serve.Protocol
module Sweep = Mcsim_serve.Sweep

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let bench n = Option.get (Spec92.of_name n)
let p2p = Interconnect.Point_to_point
let jstr j = Json.to_string ~minify:true j

let sweep : P.sweep Alcotest.testable =
  Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (jstr (P.sweep_to_json s))) ( = )

let outputs : Sweep.outputs Alcotest.testable =
  let pp fmt (o : Sweep.outputs) =
    let opt = Option.value ~default:"-" in
    Format.fprintf fmt "csv=%b full=%b profile=%b metrics_out=%s retries=%d trace_cache=%s \
                        result_cache=%s"
      o.csv o.full o.profile (opt o.metrics_out) o.retries (opt o.trace_cache)
      (opt o.result_cache)
  in
  Alcotest.testable pp ( = )

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------- scheduler names ------------------------- *)

let scheduler_names_parse_back () =
  let family = function
    | Pipeline.Sched_none -> "none"
    | Pipeline.Sched_local _ -> "local"
    | Pipeline.Sched_round_robin -> "round-robin"
    | Pipeline.Sched_random _ -> "random"
  in
  List.iter
    (fun s ->
      let name = Pipeline.scheduler_name s in
      match Pipeline.scheduler_of_name name with
      | Some s' -> check Alcotest.string name (family s) (family s')
      | None -> Alcotest.fail (Printf.sprintf "scheduler_name %S does not parse back" name))
    [ Pipeline.Sched_none; Pipeline.default_local;
      Pipeline.Sched_local { imbalance_threshold = 5; window = 3 };
      Pipeline.Sched_round_robin; Pipeline.Sched_random 7; Pipeline.Sched_random 99 ];
  (* Every spelling the CLI or the wire decoder ever accepted. *)
  List.iter
    (fun (spelling, want) ->
      check Alcotest.bool spelling true (Pipeline.scheduler_of_name spelling = Some want))
    [ ("none", Pipeline.Sched_none); ("local", Pipeline.default_local);
      ("round_robin", Pipeline.Sched_round_robin); ("round-robin", Pipeline.Sched_round_robin);
      ("rr", Pipeline.Sched_round_robin); ("random", Pipeline.Sched_random 7) ];
  check Alcotest.bool "unknown name" true (Pipeline.scheduler_of_name "fifo" = None)

(* --------------------------- command.json -------------------------- *)

let off =
  { Sweep.csv = false; full = false; profile = false; metrics_out = None; retries = 0;
    trace_cache = None; result_cache = None }

(* (name, record as an older or the current mcsim wrote it, expected
   decoding). The first two eras are verbatim shapes of the encoders
   that predate the result cache and steering; "kind" records are what
   Sweep.command_json writes now. *)
let fixtures =
  [ ( "pre-result-cache table2",
      {|{"command":"table2","benchmarks":["compress","ora"],"max_instrs":120000,"seed":1,
         "engine":"wakeup","sampling":null,"csv":true,"four_way":false,
         "metrics_out":"m.json","retries":2,"trace_cache":null}|},
      P.Table2
        { benchmarks = [ bench "compress"; bench "ora" ]; max_instrs = 120_000; seed = 1;
          engine = `Wakeup; sampling = None; four_way = false; clusters = None;
          topology = p2p; steering = Steering.Static },
      { off with csv = true; metrics_out = Some "m.json"; retries = 2 } );
    ( "pre-result-cache run",
      {|{"command":"run","benchmark":"gcc1","machine":"single","scheduler":"round_robin",
         "max_instrs":20000,"seed":3,"engine":"scan","profile":true,"metrics_out":null,
         "retries":0,"trace_cache":"tc"}|},
      P.Run
        { bench = bench "gcc1"; machine = `Single; scheduler = Pipeline.Sched_round_robin;
          max_instrs = 20_000; seed = 3; engine = `Scan; clusters = None; topology = p2p;
          steering = Steering.Static },
      { off with profile = true; trace_cache = Some "tc" } );
    ( "pre-result-cache sample",
      {|{"command":"sample","benchmark":"compress","machine":"dual","scheduler":"local",
         "max_instrs":100000,"seed":2,"sampling":null,"full":true,"csv":false,
         "engine":"wakeup","metrics_out":null,"retries":1,"trace_cache":null}|},
      P.Sample
        { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.default_local;
          max_instrs = 100_000; seed = 2; engine = `Wakeup;
          policy = { Sampling.default_policy with seed = 2 }; clusters = None;
          topology = p2p; steering = Steering.Static },
      { off with full = true; retries = 1 } );
    ( "pre-steering table2",
      {|{"clusters":null,"topology":"p2p","command":"table2","benchmarks":["tomcatv"],
         "max_instrs":60000,"seed":4,"engine":"scan","sampling":"20000:2000:2000",
         "csv":false,"four_way":true,"metrics_out":null,"retries":0,"trace_cache":"tc",
         "result_cache":"rc"}|},
      P.Table2
        { benchmarks = [ bench "tomcatv" ]; max_instrs = 60_000; seed = 4; engine = `Scan;
          sampling =
            Some { Sampling.interval = 20_000; warmup = 2000; detail = 2000; seed = 4 };
          four_way = true; clusters = None; topology = p2p; steering = Steering.Static },
      { off with trace_cache = Some "tc"; result_cache = Some "rc" } );
    ( "pre-steering run",
      {|{"clusters":null,"topology":"p2p","command":"run","benchmark":"compress",
         "machine":"dual","scheduler":"local","max_instrs":20000,"seed":1,
         "engine":"wakeup","profile":false,"metrics_out":null,"retries":0,
         "trace_cache":null,"result_cache":"rc"}|},
      P.Run
        { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.default_local;
          max_instrs = 20_000; seed = 1; engine = `Wakeup; clusters = None; topology = p2p;
          steering = Steering.Static },
      { off with result_cache = Some "rc" } );
    ( "pre-steering sample",
      {|{"clusters":8,"topology":"xbar","command":"sample","benchmark":"su2cor",
         "machine":"dual","scheduler":"none","max_instrs":90000,"seed":6,
         "sampling":"30000:1000:3000","full":false,"csv":true,"engine":"wakeup",
         "metrics_out":"s.json","retries":3,"trace_cache":null,"result_cache":null}|},
      P.Sample
        { bench = bench "su2cor"; machine = `Dual; scheduler = Pipeline.Sched_none;
          max_instrs = 90_000; seed = 6; engine = `Wakeup;
          policy = { Sampling.interval = 30_000; warmup = 1000; detail = 3000; seed = 6 };
          clusters = Some 8; topology = Interconnect.Crossbar; steering = Steering.Static },
      { off with csv = true; metrics_out = Some "s.json"; retries = 3 } );
    ( "steering-era table2",
      {|{"clusters":4,"topology":"ring","steering":"load","command":"table2",
         "benchmarks":["doduc"],"max_instrs":4000,"seed":1,"engine":"wakeup",
         "sampling":null,"csv":true,"four_way":false,"metrics_out":null,"retries":0,
         "trace_cache":null,"result_cache":null}|},
      P.Table2
        { benchmarks = [ bench "doduc" ]; max_instrs = 4000; seed = 1; engine = `Wakeup;
          sampling = None; four_way = false; clusters = Some 4;
          topology = Interconnect.Ring; steering = Steering.Load },
      { off with csv = true } );
    (* What `run --scheduler round-robin` wrote: resuming it used to fail. *)
    ( "steering-era run",
      {|{"clusters":4,"topology":"ring","steering":"dependence","command":"run",
         "benchmark":"compress","machine":"dual","scheduler":"round_robin",
         "max_instrs":20000,"seed":1,"engine":"wakeup","profile":false,
         "metrics_out":null,"retries":0,"trace_cache":null,"result_cache":null}|},
      P.Run
        { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.Sched_round_robin;
          max_instrs = 20_000; seed = 1; engine = `Wakeup; clusters = Some 4;
          topology = Interconnect.Ring; steering = Steering.Dependence },
      off );
    ( "steering-era sample",
      {|{"clusters":null,"topology":"p2p","steering":"modulo","command":"sample",
         "benchmark":"ora","machine":"dual","scheduler":"random","max_instrs":50000,
         "seed":9,"sampling":null,"full":false,"csv":false,"engine":"scan",
         "metrics_out":null,"retries":0,"trace_cache":null,"result_cache":"rc"}|},
      P.Sample
        { bench = bench "ora"; machine = `Dual; scheduler = Pipeline.Sched_random 7;
          max_instrs = 50_000; seed = 9; engine = `Scan;
          policy = { Sampling.default_policy with seed = 9 }; clusters = None;
          topology = p2p; steering = Steering.Modulo },
      { off with result_cache = Some "rc" } );
    ( "current run",
      {|{"kind":"run","benchmark":"gcc1","machine":"single","scheduler":"none",
         "max_instrs":7000,"seed":2,"engine":"wakeup","csv":false,"full":false,
         "profile":false,"metrics_out":null,"retries":1,"trace_cache":null,
         "result_cache":null}|},
      P.Run
        { bench = bench "gcc1"; machine = `Single; scheduler = Pipeline.Sched_none;
          max_instrs = 7000; seed = 2; engine = `Wakeup; clusters = None; topology = p2p;
          steering = Steering.Static },
      { off with retries = 1 } ) ]

let parse_fields text =
  match Json.of_string text with
  | Ok (Json.Obj fields) -> fields
  | Ok _ | Error _ -> Alcotest.fail ("fixture is not a JSON object: " ^ text)

let command_records_decode () =
  List.iter
    (fun (name, text, want_sweep, want_outputs) ->
      let got_sweep, got_outputs = Sweep.of_command (parse_fields text) in
      check sweep name want_sweep got_sweep;
      check outputs name want_outputs got_outputs)
    fixtures

let command_records_round_trip () =
  List.iter
    (fun (name, _, s, o) ->
      let written = Sweep.command_json s o in
      check Alcotest.bool (name ^ ": names its kind") true
        (List.mem_assoc "kind" written && not (List.mem_assoc "command" written));
      (* Through the file's text form, as command.json is read back. *)
      let s', o' = Sweep.of_command (parse_fields (Json.to_string (Json.Obj written))) in
      check sweep (name ^ ": sweep round-trips") s s';
      check outputs (name ^ ": outputs round-trip") o o')
    fixtures

let command_records_reject_junk () =
  List.iter
    (fun text ->
      match Sweep.of_command (parse_fields text) with
      | _ -> Alcotest.fail ("accepted " ^ text)
      | exception Failure e ->
        check Alcotest.bool "error is one line" false (String.contains e '\n'))
    [ {|{"command":"steer","benchmarks":["compress"]}|};
      {|{"command":"run","benchmark":"compress","machine":"dual","scheduler":"fifo",
         "max_instrs":1000,"seed":1,"engine":"wakeup"}|} ]

(* --------------------------- cache identity ------------------------ *)

(* Result_store digests of the units these sweeps decompose into, as
   the daemon computed them before the decomposition moved into Sweep.
   Batch --result-cache, checkpoints and the daemon all address units
   by these; a change here orphans every existing cache entry. *)
let pinned =
  [ ( P.Run
        { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.default_local;
          max_instrs = 4000; seed = 1; engine = `Wakeup; clusters = None; topology = p2p;
          steering = Steering.Static },
      [ ("compress", "run", "a5435abd4802bd8088bfe0d5fffe974a") ] );
    ( P.Run
        { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.Sched_round_robin;
          max_instrs = 4000; seed = 3; engine = `Wakeup; clusters = Some 4;
          topology = Interconnect.Ring; steering = Steering.Dependence },
      [ ("compress", "run", "4636d1ddfd2f1586dfb44a90a65769d9") ] );
    ( P.Sample
        { bench = bench "gcc1"; machine = `Single; scheduler = Pipeline.default_local;
          max_instrs = 50_000; seed = 5; engine = `Scan;
          policy = { Sampling.interval = 5000; warmup = 500; detail = 500; seed = 5 };
          clusters = None; topology = p2p; steering = Steering.Static },
      [ ("gcc1", "sample", "73df52e84f584139ec42e07bb7ce33ae") ] );
    ( P.Table2
        { benchmarks = [ bench "compress"; bench "ora" ]; max_instrs = 4000; seed = 1;
          engine = `Wakeup; sampling = None; four_way = false; clusters = None;
          topology = p2p; steering = Steering.Static },
      [ ( "compress",
          "table2/row:single=f029defed146ac1fabaf1d9037d8a58b:sampling_seed=-",
          "7d48eee0ae868a97c1ac0c23e26b3098" );
        ( "ora",
          "table2/row:single=f029defed146ac1fabaf1d9037d8a58b:sampling_seed=-",
          "3d0d78fa795ce3549272ba41dcfa0062" ) ] );
    ( P.Table2
        { benchmarks = [ bench "tomcatv" ]; max_instrs = 4000; seed = 2; engine = `Wakeup;
          sampling = Some { Sampling.interval = 2000; warmup = 200; detail = 200; seed = 2 };
          four_way = true; clusters = None; topology = p2p; steering = Steering.Load },
      [ ( "tomcatv",
          "table2/row:single=1a281404e9b79368eff511bb764480fe:sampling_seed=2",
          "12629a6f1a21a6b536f39850666dd70b" ) ] ) ]

let cache_identity_pinned () =
  List.iter
    (fun (s, want) ->
      let units, _ = Sweep.units s in
      let got =
        List.map
          (fun (u : Sweep.unit_spec) ->
            (u.u_label, u.u_key, Mcsim.Result_store.digest ~manifest:u.u_manifest ~key:u.u_key))
          units
      in
      check
        Alcotest.(list (triple string string string))
        (P.sweep_kind s ^ " unit identities") want got;
      (* A run or sample is one unit whose identity is the sweep's own
         manifest — the one its checkpoint's sweep.json pins. *)
      match s with
      | P.Run _ | P.Sample _ ->
        check Alcotest.string "unit manifest is the sweep manifest"
          (jstr (Manifest.identity_json (Sweep.manifest s)))
          (jstr (Manifest.identity_json (List.hd units).u_manifest))
      | P.Table2 _ -> ())
    pinned

(* ---------------------------- executor ----------------------------- *)

let executor_tiers () =
  let ck = tmp_dir "mcsim-sweep-ck" and rc = tmp_dir "mcsim-sweep-rc" in
  let ck2 = tmp_dir "mcsim-sweep-ck2" in
  Fun.protect ~finally:(fun () -> List.iter rm_rf [ ck; rc; ck2 ]) @@ fun () ->
  let s =
    P.Run
      { bench = bench "compress"; machine = `Dual; scheduler = Pipeline.default_local;
        max_instrs = 3000; seed = 1; engine = `Wakeup; clusters = None; topology = p2p;
        steering = Steering.Static }
  in
  let exec ?checkpoint ?result_cache () =
    let (r, n), cached =
      Sweep.execute ?checkpoint ?result_cache ~retries:0 ~decode:Sweep.run_of_json s
    in
    ((r.Mcsim_cluster.Machine.cycles, n, r.Mcsim_cluster.Machine.counters), cached)
  in
  let fresh, c0 = exec ~checkpoint:ck ~result_cache:rc () in
  check Alcotest.bool "first run computes" false c0;
  let from_ck, c1 = exec ~checkpoint:ck () in
  check Alcotest.bool "rerun is served by the checkpoint" true c1;
  let from_rc, c2 = exec ~checkpoint:ck2 ~result_cache:rc () in
  check Alcotest.bool "a fresh checkpoint is served by the result cache" true c2;
  let recomputed, c3 = exec () in
  check Alcotest.bool "no cache, no hit" false c3;
  List.iter
    (fun (what, got) -> check Alcotest.bool what true (got = fresh))
    [ ("checkpoint hit", from_ck); ("result-cache hit", from_rc); ("recompute", recomputed) ];
  (* A stored record the decoder rejects is a miss, not an error. *)
  let calls = ref 0 in
  let picky d =
    incr calls;
    if !calls = 1 then None else Sweep.run_of_json d
  in
  let _, c4 = Sweep.execute ~checkpoint:ck ~retries:0 ~decode:picky s in
  check Alcotest.bool "a rejected record is recomputed" false c4

(* Table 2's trace cache and a served run's trace share one key: a
   trace Table2 saved is a hit for Sweep.flat_trace, which writes
   nothing new. *)
let trace_cache_shared () =
  let tc = tmp_dir "mcsim-sweep-tc" in
  Fun.protect ~finally:(fun () -> rm_rf tc) @@ fun () ->
  let b = bench "compress" and seed = 2 and max_instrs = 3000 in
  ignore (Mcsim.Table2.run ~jobs:1 ~max_instrs ~seed ~benchmarks:[ b ] ~trace_cache:tc ());
  let traces () =
    Sys.readdir tc |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mctrace")
    |> List.sort String.compare
  in
  let saved = traces () in
  check Alcotest.int "table2 saved the native and local traces" 2 (List.length saved);
  let flat ?trace_cache () =
    Mcsim_isa.Flat_trace.to_dynamic_array
      (Sweep.flat_trace ?trace_cache ~scheduler:Pipeline.default_local ~seed ~max_instrs b)
  in
  let cached = flat ~trace_cache:tc () in
  check Alcotest.(list string) "no new .mctrace file" saved (traces ());
  check Alcotest.bool "the cached trace is the walked one" true (cached = flat ())

let suite =
  ( "sweep",
    [ case "scheduler names parse back to their family" scheduler_names_parse_back;
      case "command.json of every version decodes" command_records_decode;
      case "command.json round-trips through its text form" command_records_round_trip;
      case "command.json junk fails one-line" command_records_reject_junk;
      case "unit cache identities are pinned" cache_identity_pinned;
      case "executor: checkpoint, result cache, compute" executor_tiers;
      case "table2 and run share one trace-cache key" trace_cache_shared ] )

module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Machine = Mcsim_cluster.Machine
module Steering = Mcsim_cluster.Steering
module Interconnect = Mcsim_cluster.Interconnect
module Pipeline = Mcsim_compiler.Pipeline
module Spec92 = Mcsim_workload.Spec92
module Sampling = Mcsim_sampling.Sampling
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Machines and traces                                                 *)
(* ------------------------------------------------------------------ *)

(* [clusters] overrides the single/dual selection; [topology] and
   [steering] apply either way (both are part of the config, hence of
   manifests and cache identities). A bad cluster count raises the
   model's one-line [Invalid_argument]. *)
let config ?clusters ?(topology = Interconnect.Point_to_point)
    ?(steering = Steering.Static) ~what machine =
  let base =
    match (clusters, machine) with
    | Some n, _ -> Machine.config_for_clusters ~topology n
    | None, `Single -> { (Machine.single_cluster ()) with Machine.topology }
    | None, `Dual -> { (Machine.dual_cluster ()) with Machine.topology }
  in
  Steering.require_clustered ~what steering
    ~clusters:(Mcsim_cluster.Assignment.num_clusters base.Machine.assignment);
  { base with Machine.steering }

(* Table 2 steers only its clustered column: the single-cluster baseline
   has nowhere to steer and stays static. *)
let configs = function
  | P.Table2 { four_way = true; clusters = Some _; _ } ->
    failwith "table2: --four-way and --clusters are mutually exclusive"
  | P.Table2 { four_way = true; topology; steering; _ } ->
    ( Some { (Machine.single_cluster_4 ()) with Machine.topology },
      { (Machine.dual_cluster_2x2 ()) with Machine.topology; steering } )
  | P.Table2 { clusters; topology; steering; _ } ->
    (None, config ?clusters ~topology ~steering ~what:"table2" `Dual)
  | P.Run { machine; clusters; topology; steering; _ } ->
    (None, config ?clusters ~topology ~steering ~what:"run" machine)
  | P.Sample { machine; clusters; topology; steering; _ } ->
    (None, config ?clusters ~topology ~steering ~what:"sample" machine)

(* Binaries are compiled for the cluster count of the machine that runs
   them; without [clusters] that is the historical default of 2 (even
   for the single-cluster machine, which runs the same native binary the
   dual machine does — the Table-2 methodology). *)
let flat_trace ?trace_cache ?(clusters = 2) ~scheduler ~seed ~max_instrs bench =
  Mcsim.Experiment.trace
    (Option.map (fun dir -> Mcsim.Trace_store.open_ ~dir) trace_cache)
    ~clusters ~seed ~max_instrs ~benchmark:(Spec92.name bench) scheduler (fun () ->
      let prog = Spec92.program bench in
      let profile = Mcsim_trace.Walker.profile ~seed prog in
      Pipeline.compile ~clusters ~profile ~scheduler prog)

let manifest_of cfg = function
  | P.Table2 { benchmarks; max_instrs; seed; engine; sampling; _ } ->
    Manifest.make ~engine ~seed
      ~benchmark:(String.concat "," (List.map Spec92.name benchmarks))
      ~trace_instrs:max_instrs ?sampling cfg
  | P.Run { bench; scheduler; max_instrs; seed; engine; _ } ->
    Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
      ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs cfg
  | P.Sample { bench; scheduler; max_instrs; seed; engine; policy; _ } ->
    Manifest.make ~engine ~seed ~benchmark:(Spec92.name bench)
      ~scheduler:(Pipeline.scheduler_name scheduler) ~trace_instrs:max_instrs
      ~sampling:policy cfg

let manifest sweep = manifest_of (snd (configs sweep)) sweep

let describe = function
  | P.Run { bench; machine; scheduler; clusters; topology; steering; _ }
  | P.Sample { bench; machine; scheduler; clusters; topology; steering; _ } ->
    let steer =
      if Steering.is_dynamic steering then
        Printf.sprintf ", %s-steered" (Steering.to_string steering)
      else ""
    in
    let m =
      match (clusters, machine) with
      | Some n, _ -> Printf.sprintf "%d-cluster (%s%s)" n (Interconnect.to_string topology) steer
      | None, `Single -> "single-cluster"
      | None, `Dual -> "dual-cluster" ^ steer
    in
    Printf.sprintf "%s on the %s machine, %s scheduler" (Spec92.name bench) m
      (Pipeline.scheduler_name scheduler)
  | P.Table2 _ -> invalid_arg "Sweep.describe: table2"

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

type unit_spec = {
  u_label : string;
  u_manifest : Manifest.t;
  u_key : string;
  u_compute : unit -> (string * Json.t) list;
}

let units ?trace_cache ?profile sweep =
  let single_config, cfg = configs sweep in
  let one bench key compute =
    ( [ { u_label = Spec92.name bench; u_manifest = manifest_of cfg sweep; u_key = key;
          u_compute = compute } ],
      fun slots -> Json.Obj slots.(0) )
  in
  match sweep with
  | P.Table2 { benchmarks; max_instrs; seed; engine; sampling; _ } ->
    let unit b =
      let manifest, key =
        Mcsim.Table2.row_store_unit ~engine ?sampling ?single_config ~dual_config:cfg
          ~max_instrs ~seed b
      in
      { u_label = Spec92.name b;
        u_manifest = manifest;
        u_key = key;
        u_compute =
          (fun () ->
            match
              Mcsim.Table2.run ~jobs:1 ~max_instrs ~seed ~benchmarks:[ b ] ~engine ?sampling
                ?single_config ~dual_config:cfg ?trace_cache ()
            with
            | [ row ] -> [ ("row", Mcsim.Table2.row_json row) ]
            | _ -> failwith "table2 unit produced no row") }
    in
    let assemble slots =
      let row fields = Option.value (List.assoc_opt "row" fields) ~default:Json.Null in
      Json.Obj [ ("rows", Json.List (List.map row (Array.to_list slots))) ]
    in
    (List.map unit benchmarks, assemble)
  | P.Run { bench; scheduler; max_instrs; seed; engine; clusters; _ } ->
    one bench "run" (fun () ->
        let trace = flat_trace ?trace_cache ?clusters ~scheduler ~seed ~max_instrs bench in
        Option.iter Mcsim_util.Profile_counters.alloc_start profile;
        let r = Machine.run_flat ~engine ?profile cfg trace in
        Option.iter Mcsim_util.Profile_counters.alloc_stop profile;
        [ ("result", Metrics.result_json r);
          ("trace_instrs", Json.Int (Mcsim_isa.Flat_trace.length trace)) ])
  | P.Sample { bench; scheduler; max_instrs; seed; engine; policy; clusters; _ } ->
    one bench "sample" (fun () ->
        let trace = flat_trace ?trace_cache ?clusters ~scheduler ~seed ~max_instrs bench in
        let s = Sampling.run_flat ~engine ~policy cfg trace in
        [ ("sampling", Metrics.sampling_json s);
          ("result", Metrics.result_json s.Sampling.machine) ])

let run_of_json d =
  match
    ( Option.bind (Json.member "result" d) Metrics.result_of_json,
      Option.bind (Json.member "trace_instrs" d) Json.get_int )
  with
  | Some r, Some n -> Some (r, n)
  | _ -> None

let sample_of_json ~seed d =
  match (Option.bind (Json.member "result" d) Metrics.result_of_json, Json.member "sampling" d) with
  | Some machine, Some sj -> Metrics.sampling_of_json ~seed ~machine sj
  | _ -> None

let execute ?checkpoint ?result_cache ?trace_cache ?profile ~retries ~decode sweep =
  let machine =
    match sweep with
    | P.Run { machine; _ } | P.Sample { machine; _ } -> machine
    | P.Table2 _ -> invalid_arg "Sweep.execute: table2 runs through Table2.run_report"
  in
  let u = List.hd (fst (units ?trace_cache ?profile sweep)) in
  let stores =
    Option.to_list
      (Option.map
         (fun dir ->
           Mcsim.Checkpoint.store
             (Mcsim.Checkpoint.open_ ~dir ~kind:(P.sweep_kind sweep) ~manifest:u.u_manifest
                ~extra:[ ("machine", Json.String (P.machine_name machine)) ]
                ()))
         checkpoint)
    @ Option.to_list (Option.map (fun dir -> Mcsim.Result_store.open_ ~dir) result_cache)
  in
  (* A unit's decoded value, paired with the fields it is stored as. *)
  let l =
    Mcsim.Checkpoint.lookup stores
      ~unit:(fun () -> (u.u_manifest, u.u_key))
      ~encode:snd
      ~decode:(fun () d ->
        match (decode d, d) with Some v, Json.Obj fields -> Some (Some v, fields) | _ -> None)
      [ () ]
  in
  let compute () =
    let fields = u.u_compute () in
    (decode (Json.Obj fields), fields)
  in
  match (Mcsim_util.Pool.values (Mcsim.Checkpoint.fill ~retries ~jobs:1 compute l), l.cached) with
  | [ (Some v, _) ], [ (_, hit) ] -> (v, Option.is_some hit)
  | [ (None, _) ], _ -> failwith (Printf.sprintf "%s: unit %s did not decode" u.u_label u.u_key)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* command.json                                                        *)
(* ------------------------------------------------------------------ *)

type outputs = {
  csv : bool;
  full : bool;
  profile : bool;
  metrics_out : string option;
  retries : int;
  trace_cache : string option;
  result_cache : string option;
}

let command_json sweep o =
  let path = function Some p -> Json.String p | None -> Json.Null in
  (match P.sweep_to_json sweep with Json.Obj fields -> fields | _ -> assert false)
  @ [ ("csv", Json.Bool o.csv);
      ("full", Json.Bool o.full);
      ("profile", Json.Bool o.profile);
      ("metrics_out", path o.metrics_out);
      ("retries", Json.Int o.retries);
      ("trace_cache", path o.trace_cache);
      ("result_cache", path o.result_cache) ]

(* Records written before the CLI shared the wire codec name the sweep
   under "command" (not "kind"), and a sample run without --sample
   stored "sampling": null for the default policy. Their "clusters":
   null and absent cluster, steering and cache fields already decode to
   the defaults. *)
let of_command fields =
  let fields = List.map (function "command", k -> ("kind", k) | f -> f) fields in
  let fields =
    match (List.assoc_opt "kind" fields, List.assoc_opt "sampling" fields) with
    | Some (Json.String "sample"), (None | Some Json.Null) ->
      ("sampling", Json.String (Sampling.policy_to_string Sampling.default_policy))
      :: List.remove_assoc "sampling" fields
    | _ -> fields
  in
  let str k = match List.assoc_opt k fields with Some (Json.String s) -> Some s | _ -> None in
  let flag k = List.assoc_opt k fields = Some (Json.Bool true) in
  ( P.sweep_of_json (Json.Obj fields),
    { csv = flag "csv";
      full = flag "full";
      profile = flag "profile";
      metrics_out = str "metrics_out";
      retries =
        (match List.assoc_opt "retries" fields with Some (Json.Int n) -> n | _ -> 0);
      trace_cache = str "trace_cache";
      result_cache = str "result_cache" } )

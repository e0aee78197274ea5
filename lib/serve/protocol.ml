module Json = Mcsim_obs.Json
module Spec92 = Mcsim_workload.Spec92
module Pipeline = Mcsim_compiler.Pipeline
module Sampling = Mcsim_sampling.Sampling

let max_frame_bytes = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame_string json =
  let payload = Json.to_string ~minify:true json in
  let n = String.length payload in
  if n > max_frame_bytes then
    failwith (Printf.sprintf "protocol: frame of %d bytes exceeds the %d-byte limit" n
                max_frame_bytes);
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let write_frame fd json = write_all fd (frame_string json)

type reader = { mutable pending : string }

let reader () = { pending = "" }
let push r s = if s <> "" then r.pending <- r.pending ^ s
let buffered r = String.length r.pending

let pop r =
  let len = String.length r.pending in
  if len < 4 then None
  else begin
    let n = Int32.to_int (String.get_int32_be r.pending 0) in
    if n < 0 || n > max_frame_bytes then
      failwith
        (Printf.sprintf "protocol: frame length %d out of range (max %d)" n max_frame_bytes);
    if len < 4 + n then None
    else begin
      let payload = String.sub r.pending 4 n in
      r.pending <- String.sub r.pending (4 + n) (len - 4 - n);
      match Json.of_string payload with
      | Ok v -> Some v
      | Error e -> failwith ("protocol: bad frame payload: " ^ e)
    end
  end

let read_frame fd r =
  let buf = Bytes.create 65536 in
  let rec loop () =
    match pop r with
    | Some _ as frame -> frame
    | None ->
      let k = Unix.read fd buf 0 (Bytes.length buf) in
      if k = 0 then
        if buffered r = 0 then None
        else failwith "protocol: connection closed mid-frame"
      else begin
        push r (Bytes.sub_string buf 0 k);
        loop ()
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

(* [clusters = None] keeps the sweep's historical machine selection
   ([machine], or single-vs-dual for Table2); [Some n] partitions into n
   clusters wired as [topology] instead. Both fields are omitted from
   the wire format when at their defaults, so old clients and servers
   interoperate for every sweep they could already express. *)
type sweep =
  | Table2 of {
      benchmarks : Spec92.benchmark list;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      sampling : Sampling.policy option;
      four_way : bool;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }
  | Run of {
      bench : Spec92.benchmark;
      machine : [ `Single | `Dual ];
      scheduler : Pipeline.scheduler;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }
  | Sample of {
      bench : Spec92.benchmark;
      machine : [ `Single | `Dual ];
      scheduler : Pipeline.scheduler;
      max_instrs : int;
      seed : int;
      engine : Mcsim_cluster.Machine.engine;
      policy : Sampling.policy;
      clusters : int option;
      topology : Mcsim_cluster.Interconnect.topology;
      steering : Mcsim_cluster.Steering.policy;
    }

let sweep_kind = function Table2 _ -> "table2" | Run _ -> "run" | Sample _ -> "sample"

let bench_of_name s =
  match Spec92.of_name s with
  | Some b -> b
  | None -> failwith (Printf.sprintf "protocol: unknown benchmark %S" s)

let machine_name = function `Single -> "single" | `Dual -> "dual"

let machine_of_name = function
  | "single" -> `Single
  | "dual" -> `Dual
  | s -> failwith (Printf.sprintf "protocol: unknown machine %S" s)

(* Parameters travel as {!Pipeline.scheduler_name} strings, so a tuned
   scheduler resolves to the stock instance of its family. *)
let scheduler_of_name s =
  match Pipeline.scheduler_of_name s with
  | Some sched -> sched
  | None -> failwith (Printf.sprintf "protocol: unknown scheduler %S" s)

let engine_of_name = function
  | "scan" -> `Scan
  | "wakeup" -> `Wakeup
  | s -> failwith (Printf.sprintf "protocol: unknown engine %S" s)

let str_field j k =
  match Option.bind (Json.member k j) Json.get_string with
  | Some s -> s
  | None -> failwith (Printf.sprintf "protocol: missing or mistyped field %S" k)

let int_field j k =
  match Option.bind (Json.member k j) Json.get_int with
  | Some n -> n
  | None -> failwith (Printf.sprintf "protocol: missing or mistyped field %S" k)

let bool_field j k =
  match Json.member k j with
  | Some (Json.Bool b) -> b
  | _ -> failwith (Printf.sprintf "protocol: missing or mistyped field %S" k)

(* Absent on frames from pre-interconnect clients. *)
let clusters_field j =
  match Json.member "clusters" j with
  | None | Some Json.Null -> None
  | Some (Json.Int n) -> Some n
  | Some _ -> failwith "protocol: missing or mistyped field \"clusters\""

let topology_field j =
  match Json.member "topology" j with
  | None | Some Json.Null -> Mcsim_cluster.Interconnect.Point_to_point
  | Some (Json.String s) -> (
    match Mcsim_cluster.Interconnect.of_string s with
    | t -> t
    | exception Invalid_argument m -> failwith ("protocol: " ^ m))
  | Some _ -> failwith "protocol: missing or mistyped field \"topology\""

(* Absent on frames from pre-steering clients; absent = static. *)
let steering_field j =
  match Json.member "steering" j with
  | None | Some Json.Null -> Mcsim_cluster.Steering.Static
  | Some (Json.String s) -> (
    match Mcsim_cluster.Steering.of_string s with
    | Ok p -> p
    | Error e -> failwith ("protocol: " ^ e))
  | Some _ -> failwith "protocol: missing or mistyped field \"steering\""

let cluster_fields ~clusters ~topology ~steering =
  (match clusters with Some n -> [ ("clusters", Json.Int n) ] | None -> [])
  @ (match topology with
    | Mcsim_cluster.Interconnect.Point_to_point -> []
    | t -> [ ("topology", Json.String (Mcsim_cluster.Interconnect.to_string t)) ])
  @
  match steering with
  | Mcsim_cluster.Steering.Static -> []
  | p -> [ ("steering", Json.String (Mcsim_cluster.Steering.to_string p)) ]

let policy_field ~seed j k =
  match Json.member k j with
  | Some Json.Null | None -> None
  | Some (Json.String s) -> (
    match Sampling.policy_of_string ~seed s with
    | Ok p -> Some p
    | Error e -> failwith (Printf.sprintf "protocol: bad sampling policy %S: %s" s e))
  | Some _ -> failwith (Printf.sprintf "protocol: missing or mistyped field %S" k)

let sweep_to_json = function
  | Table2
      { benchmarks; max_instrs; seed; engine; sampling; four_way; clusters; topology;
        steering } ->
    Json.Obj
      ([ ("kind", Json.String "table2");
         ("benchmarks", Json.List (List.map (fun b -> Json.String (Spec92.name b)) benchmarks));
         ("max_instrs", Json.Int max_instrs);
         ("seed", Json.Int seed);
         ("engine", Json.String (Mcsim_obs.Manifest.engine_name engine));
         ("sampling",
          match sampling with
          | Some p -> Json.String (Sampling.policy_to_string p)
          | None -> Json.Null);
         ("four_way", Json.Bool four_way) ]
      @ cluster_fields ~clusters ~topology ~steering)
  | Run
      { bench; machine; scheduler; max_instrs; seed; engine; clusters; topology; steering }
    ->
    Json.Obj
      ([ ("kind", Json.String "run");
         ("benchmark", Json.String (Spec92.name bench));
         ("machine", Json.String (machine_name machine));
         ("scheduler", Json.String (Pipeline.scheduler_name scheduler));
         ("max_instrs", Json.Int max_instrs);
         ("seed", Json.Int seed);
         ("engine", Json.String (Mcsim_obs.Manifest.engine_name engine)) ]
      @ cluster_fields ~clusters ~topology ~steering)
  | Sample
      { bench; machine; scheduler; max_instrs; seed; engine; policy; clusters; topology;
        steering } ->
    Json.Obj
      ([ ("kind", Json.String "sample");
         ("benchmark", Json.String (Spec92.name bench));
         ("machine", Json.String (machine_name machine));
         ("scheduler", Json.String (Pipeline.scheduler_name scheduler));
         ("max_instrs", Json.Int max_instrs);
         ("seed", Json.Int seed);
         ("engine", Json.String (Mcsim_obs.Manifest.engine_name engine));
         ("sampling", Json.String (Sampling.policy_to_string policy)) ]
      @ cluster_fields ~clusters ~topology ~steering)

let sweep_of_json j =
  match str_field j "kind" with
  | "table2" ->
    let benchmarks =
      match Json.member "benchmarks" j with
      | Some (Json.List l) when l <> [] ->
        List.map
          (function
            | Json.String s -> bench_of_name s
            | _ -> failwith "protocol: benchmarks must be a list of names")
          l
      | _ -> failwith "protocol: benchmarks must be a non-empty list of names"
    in
    let seed = int_field j "seed" in
    Table2
      { benchmarks;
        max_instrs = int_field j "max_instrs";
        seed;
        engine = engine_of_name (str_field j "engine");
        sampling = policy_field ~seed j "sampling";
        four_way = bool_field j "four_way";
        clusters = clusters_field j;
        topology = topology_field j;
        steering = steering_field j }
  | "run" ->
    Run
      { bench = bench_of_name (str_field j "benchmark");
        machine = machine_of_name (str_field j "machine");
        scheduler = scheduler_of_name (str_field j "scheduler");
        max_instrs = int_field j "max_instrs";
        seed = int_field j "seed";
        engine = engine_of_name (str_field j "engine");
        clusters = clusters_field j;
        topology = topology_field j;
        steering = steering_field j }
  | "sample" ->
    let seed = int_field j "seed" in
    let policy =
      match policy_field ~seed j "sampling" with
      | Some p -> p
      | None -> failwith "protocol: sample sweep lacks a sampling policy"
    in
    Sample
      { bench = bench_of_name (str_field j "benchmark");
        machine = machine_of_name (str_field j "machine");
        scheduler = scheduler_of_name (str_field j "scheduler");
        max_instrs = int_field j "max_instrs";
        seed;
        engine = engine_of_name (str_field j "engine");
        policy;
        clusters = clusters_field j;
        topology = topology_field j;
        steering = steering_field j }
  | k -> failwith (Printf.sprintf "protocol: unknown sweep kind %S" k)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Submit of { id : int; sweep : sweep }
  | Stats of int
  | Ping of int
  | Stop of int

let request_to_json = function
  | Submit { id; sweep } ->
    Json.Obj
      [ ("req", Json.String "submit"); ("id", Json.Int id); ("sweep", sweep_to_json sweep) ]
  | Stats id -> Json.Obj [ ("req", Json.String "stats"); ("id", Json.Int id) ]
  | Ping id -> Json.Obj [ ("req", Json.String "ping"); ("id", Json.Int id) ]
  | Stop id -> Json.Obj [ ("req", Json.String "stop"); ("id", Json.Int id) ]

let request_of_json j =
  let id = int_field j "id" in
  match str_field j "req" with
  | "submit" -> (
    match Json.member "sweep" j with
    | Some s -> Submit { id; sweep = sweep_of_json s }
    | None -> failwith "protocol: submit lacks a sweep")
  | "stats" -> Stats id
  | "ping" -> Ping id
  | "stop" -> Stop id
  | r -> failwith (Printf.sprintf "protocol: unknown request %S" r)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type served = { s_units : int; s_cached : int; s_computed : int; s_coalesced : int }

let served_to_json s =
  Json.Obj
    [ ("units", Json.Int s.s_units);
      ("cached", Json.Int s.s_cached);
      ("computed", Json.Int s.s_computed);
      ("coalesced", Json.Int s.s_coalesced) ]

let served_of_json j =
  let int k = Option.bind (Json.member k j) Json.get_int in
  match (int "units", int "cached", int "computed", int "coalesced") with
  | Some s_units, Some s_cached, Some s_computed, Some s_coalesced ->
    Some { s_units; s_cached; s_computed; s_coalesced }
  | _ -> None

let unit_response ~id ~index ~total ~label ~source ~data =
  Json.Obj
    [ ("resp", Json.String "unit");
      ("id", Json.Int id);
      ("index", Json.Int index);
      ("total", Json.Int total);
      ("unit", Json.String label);
      ("source", Json.String source);
      ("data", data) ]

let done_response ~id ~kind ~result ~served =
  Json.Obj
    [ ("resp", Json.String "done");
      ("id", Json.Int id);
      ("kind", Json.String kind);
      ("result", result);
      ("served", served_to_json served) ]

let error_response ~id ~message =
  Json.Obj
    [ ("resp", Json.String "error"); ("id", Json.Int id); ("message", Json.String message) ]

let stats_response ~id ~metrics =
  Json.Obj [ ("resp", Json.String "stats"); ("id", Json.Int id); ("metrics", metrics) ]

let pong_response ~id = Json.Obj [ ("resp", Json.String "pong"); ("id", Json.Int id) ]

let stopping_response ~id =
  Json.Obj [ ("resp", Json.String "stopping"); ("id", Json.Int id) ]

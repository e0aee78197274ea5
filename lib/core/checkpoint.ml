module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Pool = Mcsim_util.Pool

type t = { store : Result_store.t; manifest : Manifest.t }

let store t = t.store

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let sweep_file dir = Filename.concat dir "sweep.json"

let sweep_json ~kind ~manifest ~extra =
  Json.Obj
    [ ("schema_version", Json.Int Manifest.schema_version);
      ("kind", Json.String kind);
      ("manifest", Manifest.to_json manifest);
      ("data", Json.Obj [ ("sweep", Json.Obj extra) ]) ]

let identity_of_sweep_json j =
  let kind = Option.bind (Json.member "kind" j) Json.get_string in
  let manifest =
    match Json.member "manifest" j with
    | Some (Json.Obj _ as m) -> Some (Mcsim_obs.Manifest.strip_created m)
    | Some _ | None -> None
  in
  let sweep = Json.path [ "data"; "sweep" ] j in
  match (kind, manifest, sweep) with
  | Some kind, Some manifest, Some sweep -> Some (kind, manifest, sweep)
  | _ -> None

let open_ ~dir ~kind ~manifest ?(extra = []) () =
  let t = { store = Result_store.namespace ~dir; manifest } in
  let path = sweep_file dir in
  (if Sys.file_exists path then begin
     let stale reason =
       failwith
         (Printf.sprintf
            "checkpoint %s was written by a different sweep (%s); use a fresh \
             directory or rerun with the original configuration"
            dir reason)
     in
     match Option.bind (Result_store.read_json path) identity_of_sweep_json with
     | None -> failwith (Printf.sprintf "checkpoint %s: unreadable or corrupt sweep.json" dir)
     | Some (kind', manifest', sweep') ->
       if kind' <> kind then
         stale (Printf.sprintf "sweep kind %S, expected %S" kind' kind);
       (* Minus its creation timestamp: two opens of the same sweep at
          different times must agree. *)
       if manifest' <> Manifest.identity_json manifest then stale "manifest mismatch";
       if sweep' <> Json.Obj extra then stale "sweep parameter mismatch"
   end
   else Result_store.write_json_atomic path (sweep_json ~kind ~manifest ~extra));
  t

let find t key = Result_store.find t.store ~manifest:t.manifest ~key
let record t ~key fields = Result_store.record t.store ~manifest:t.manifest ~key fields
let keys t = Result_store.keys t.store

(* ------------------------------------------------------------------ *)
(* The unit executor                                                   *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) lookup = {
  stores : Result_store.t list;
  unit : 'a -> Manifest.t * string;
  encode : 'b -> (string * Json.t) list;
  cached : ('a * 'b option) list;
}

(* A unit's identity is computed per store, so a sweep without stores
   never asks for one. *)
let lookup stores ~unit ~encode ~decode units =
  let hit u =
    List.find_map
      (fun st ->
        let manifest, key = unit u in
        Option.bind (Result_store.find st ~manifest ~key) (decode u))
      stores
  in
  { stores; unit; encode; cached = List.map (fun u -> (u, hit u)) units }

let stores ck ~key =
  match ck with
  | Some c -> ([ c.store ], fun u -> (c.manifest, key u))
  | None -> ([], fun _ -> invalid_arg "Checkpoint.stores: no checkpoint")

let record_all l u y =
  List.iter
    (fun st ->
      let manifest, key = l.unit u in
      Result_store.record st ~manifest ~key (l.encode y))
    l.stores

let misses l =
  List.filter_map (fun (u, hit) -> if Option.is_none hit then Some u else None) l.cached

(* Hits keep their slots; the fresh statuses fill the gaps in order. *)
let merge l fresh =
  snd
    (List.fold_left_map
       (fun fresh (_, hit) ->
         match (hit, fresh) with
         | Some y, _ -> (fresh, Pool.Done y)
         | None, st :: rest -> (rest, st)
         | None, [] -> assert false)
       fresh l.cached)

let fill ?retries ?inject_fault ~jobs f l =
  let run u =
    let y = f u in
    record_all l u y;
    y
  in
  merge l (Pool.parallel_map_status ?retries ?inject_fault ~jobs run (misses l))

let fill_with run l =
  match misses l with
  | [] -> merge l []
  | misses ->
    let fresh = run misses in
    List.iter2
      (fun u -> function Pool.Done y -> record_all l u y | Pool.Failed _ -> ())
      misses fresh;
    merge l fresh

let map ?retries ?inject_fault ~jobs ck ~key ~encode ~decode f units =
  let stores, unit = stores ck ~key in
  Pool.values
    (fill ?retries ?inject_fault ~jobs f (lookup stores ~unit ~encode ~decode units))

let result_fields r = [ ("result", Metrics.result_json r) ]
let result_of_fields d = Option.bind (Json.member "result" d) Metrics.result_of_json

(* ------------------------------------------------------------------ *)
(* CLI command record                                                  *)
(* ------------------------------------------------------------------ *)

let command_file dir = Filename.concat dir "command.json"

let write_command ~dir fields =
  Result_store.mkdir_p dir;
  Result_store.write_json_atomic (command_file dir) (Json.Obj fields)

let read_command ~dir =
  match Result_store.read_json (command_file dir) with
  | Some (Json.Obj fields) -> fields
  | Some _ -> failwith (Printf.sprintf "checkpoint %s: corrupt command.json" dir)
  | None ->
    failwith
      (Printf.sprintf
         "%s is not a resumable checkpoint directory (missing or unreadable command.json)"
         dir)

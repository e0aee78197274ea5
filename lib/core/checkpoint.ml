module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest
module Metrics = Mcsim_obs.Metrics
module Pool = Mcsim_util.Pool

type t = {
  dir : string;
  kind : string;
  manifest : Manifest.t;
  mutex : Mutex.t;
}

let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    (* A concurrent creator between the check and the mkdir is fine. *)
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (match Json.of_string contents with Ok v -> Some v | Error _ -> None)
  | exception Sys_error _ -> None

(* Write-to-temp-then-rename, so a unit file is never observed torn:
   rename within one directory is atomic on POSIX. *)
let write_json_atomic path v =
  let tmp =
    Filename.concat (Filename.dirname path) (".tmp-" ^ Filename.basename path)
  in
  Json.write_file tmp v "\n";
  Sys.rename tmp path

let unit_snapshot ~manifest ~key fields =
  Json.Obj
    [ ("schema_version", Json.Int Manifest.schema_version);
      ("kind", Json.String "unit");
      ("manifest", Manifest.to_json manifest);
      ("data", Json.Obj (("unit_key", Json.String key) :: fields)) ]

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let sweep_file dir = Filename.concat dir "sweep.json"

(* The manifest minus its creation timestamp: two opens of the same
   sweep at different times must agree. *)
let identity_manifest = Manifest.identity_json

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
  mkdir_p dir;
  let t = { dir; kind; manifest; mutex = Mutex.create () } in
  let path = sweep_file dir in
  (if Sys.file_exists path then begin
     let stale reason =
       failwith
         (Printf.sprintf
            "checkpoint %s was written by a different sweep (%s); use a fresh \
             directory or rerun with the original configuration"
            dir reason)
     in
     match Option.bind (read_json path) identity_of_sweep_json with
     | None -> failwith (Printf.sprintf "checkpoint %s: unreadable or corrupt sweep.json" dir)
     | Some (kind', manifest', sweep') ->
       if kind' <> kind then
         stale (Printf.sprintf "sweep kind %S, expected %S" kind' kind);
       if manifest' <> identity_manifest manifest then stale "manifest mismatch";
       if sweep' <> Json.Obj extra then stale "sweep parameter mismatch"
   end
   else write_json_atomic path (sweep_json ~kind ~manifest ~extra));
  t

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let sanitize key =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c | _ -> '_')
      key
  in
  if String.length mapped <= 60 then mapped else String.sub mapped 0 60

let unit_basename key =
  (* The digest keeps sanitized-collision and truncated keys distinct. *)
  let digest = String.sub (Digest.to_hex (Digest.string key)) 0 8 in
  Printf.sprintf "unit-%s-%s.json" (sanitize key) digest

let unit_file t key = Filename.concat t.dir (unit_basename key)

let unit_key_of_json j =
  Option.bind (Json.path [ "data"; "unit_key" ] j) Json.get_string

let find t key =
  Mutex.protect t.mutex (fun () ->
      match read_json (unit_file t key) with
      | Some j when unit_key_of_json j = Some key -> Json.member "data" j
      | Some _ | None -> None)

let record t ~key fields =
  let snapshot = unit_snapshot ~manifest:t.manifest ~key fields in
  Mutex.protect t.mutex (fun () -> write_json_atomic (unit_file t key) snapshot)

let keys t =
  Mutex.protect t.mutex (fun () ->
      Sys.readdir t.dir |> Array.to_list
      |> List.filter_map (fun name ->
             if
               String.length name > 5
               && String.sub name 0 5 = "unit-"
               && Filename.check_suffix name ".json"
             then Option.bind (read_json (Filename.concat t.dir name)) unit_key_of_json
             else None)
      |> List.sort_uniq String.compare)

(* ------------------------------------------------------------------ *)
(* The unit executor                                                   *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) lookup = {
  store : t option;
  key : 'a -> string;
  encode : 'b -> (string * Json.t) list;
  cached : ('a * 'b option) list;
}

let lookup store ~key ~encode ~decode units =
  let hit u = Option.bind store (fun st -> Option.bind (find st (key u)) (decode u)) in
  { store; key; encode; cached = List.map (fun u -> (u, hit u)) units }

let fill ?retries ?backoff ?inject_fault ~jobs f l =
  let run u =
    let y = f u in
    Option.iter (fun st -> record st ~key:(l.key u) (l.encode y)) l.store;
    y
  in
  let misses =
    List.filter_map (fun (u, hit) -> if Option.is_none hit then Some u else None) l.cached
  in
  let fresh = Pool.parallel_map_status ?retries ?backoff ?inject_fault ~jobs run misses in
  (* Hits keep their slots; the fresh statuses fill the gaps in order. *)
  snd
    (List.fold_left_map
       (fun fresh (_, hit) ->
         match (hit, fresh) with
         | Some y, _ -> (fresh, Pool.Done y)
         | None, st :: rest -> (rest, st)
         | None, [] -> assert false)
       fresh l.cached)

let map ?retries ?backoff ?inject_fault ~jobs store ~key ~encode ~decode f units =
  Pool.values
    (fill ?retries ?backoff ?inject_fault ~jobs f (lookup store ~key ~encode ~decode units))

let map_matrix ?retries ?backoff ?inject_fault ~jobs store ~key ~encode ~decode ~prepare f
    groups points =
  let groups = Array.of_list groups in
  let l =
    lookup store
      ~key:(fun (i, p) -> key groups.(i) p)
      ~encode
      ~decode:(fun (i, p) -> decode groups.(i) p)
      (List.concat
         (List.init (Array.length groups) (fun i -> List.map (fun p -> (i, p)) points)))
  in
  (* Stage 1: one job per group with a unit left to run. *)
  let todo =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun ((i, _), hit) -> if Option.is_none hit then Some i else None)
         l.cached)
  in
  let preps = Array.make (Array.length groups) None in
  List.iter2
    (fun i p -> preps.(i) <- Some p)
    todo
    (Pool.parallel_map ?retries ?backoff ?inject_fault ~jobs
       (fun i -> prepare groups.(i))
       todo);
  (* Stage 2: one job per missing unit. *)
  let outs =
    Pool.values
      (fill ?retries ?backoff ?inject_fault ~jobs (fun (i, p) -> f (Option.get preps.(i)) p) l)
  in
  let n = List.length points in
  List.init (Array.length groups) (fun i -> List.filteri (fun j _ -> j / n = i) outs)

let result_fields r = [ ("result", Metrics.result_json r) ]
let result_of_fields d = Option.bind (Json.member "result" d) Metrics.result_of_json

(* ------------------------------------------------------------------ *)
(* CLI command record                                                  *)
(* ------------------------------------------------------------------ *)

let command_file dir = Filename.concat dir "command.json"

let write_command ~dir fields =
  mkdir_p dir;
  write_json_atomic (command_file dir) (Json.Obj fields)

let read_command ~dir =
  match read_json (command_file dir) with
  | Some (Json.Obj fields) -> fields
  | Some _ -> failwith (Printf.sprintf "checkpoint %s: corrupt command.json" dir)
  | None ->
    failwith
      (Printf.sprintf
         "%s is not a resumable checkpoint directory (missing or unreadable command.json)"
         dir)

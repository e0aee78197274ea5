module Json = Mcsim_obs.Json
module Manifest = Mcsim_obs.Manifest

(* [keyed]: a namespace, whose units share one manifest and are named
   by key alone; otherwise the global, content-addressed layout. *)
type t = { dir : string; mutex : Mutex.t; keyed : bool }

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

let tmp_serial = Atomic.make 0

(* Write-to-temp-then-rename, so a file is never observed torn: rename
   within one directory is atomic on POSIX. The temp name is private to
   this write — two handles (or processes) recording the same unit must
   not write into, or rename away, each other's temp file. *)
let write_json_atomic path v =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp-%s-%d-%d-%d" (Filename.basename path) (Unix.getpid ())
         (Domain.self () :> int)
         (Atomic.fetch_and_add tmp_serial 1))
  in
  try
    Json.write_file tmp v "\n";
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let sanitize key =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c | _ -> '_')
      key
  in
  if String.length mapped <= 60 then mapped else String.sub mapped 0 60

let prune_latest ~dir names n =
  if n < 0 then invalid_arg "prune_keep_latest: n must be >= 0";
  let stamped =
    List.map
      (fun name ->
        let mtime =
          try (Unix.stat (Filename.concat dir name)).Unix.st_mtime
          with Unix.Unix_error _ -> 0.0
        in
        (name, mtime))
      names
  in
  (* Newest first; equal mtimes (a coarse-grained clock) break by name
     so the survivor set is deterministic. *)
  let ordered =
    List.sort
      (fun (n1, t1) (n2, t2) -> match compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)
      stamped
  in
  let doomed = List.filteri (fun i _ -> i >= n) ordered |> List.map fst in
  List.iter (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()) doomed;
  List.sort String.compare doomed

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let open_ ~dir =
  mkdir_p dir;
  { dir; mutex = Mutex.create (); keyed = false }

let namespace ~dir = { (open_ ~dir) with keyed = true }

(* The identity is the minified JSON of (manifest identity, unit key).
   Going through JSON rather than ad-hoc string concatenation makes the
   address injective: no two distinct (manifest, key) pairs can collide
   by delimiter games. *)
let identity_of_parts manifest_json key =
  Json.to_string ~minify:true
    (Json.Obj
       [ ("manifest", Manifest.strip_created manifest_json);
         ("unit_key", Json.String key) ])

let identity ~manifest ~key = identity_of_parts (Manifest.to_json manifest) key
let md5 s = Digest.to_hex (Digest.string s)
let digest ~manifest ~key = md5 (identity ~manifest ~key)

let res_basename dg = "res-" ^ dg ^ ".json"

let unit_basename key =
  (* The digest keeps sanitized-collision and truncated keys distinct. *)
  Printf.sprintf "unit-%s-%s.json" (sanitize key) (String.sub (md5 key) 0 8)

let unit_key_of_json j = Option.bind (Json.path [ "data"; "unit_key" ] j) Json.get_string

(* The stored snapshot's own identity — [None] when the file is not a
   unit snapshot. Re-deriving it from the content (rather than trusting
   the file name) is what makes digest collisions and files copied
   between stores or sweeps read as misses. *)
let stored_identity j =
  match (Json.member "manifest" j, unit_key_of_json j) with
  | Some mj, Some key -> Some (identity_of_parts mj key, key)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let find t ~manifest ~key =
  let want = identity ~manifest ~key in
  let check name =
    match read_json (Filename.concat t.dir name) with
    | Some j when Option.map fst (stored_identity j) = Some want -> Json.member "data" j
    | Some _ | None -> None
  in
  (* A checkpoint names units by key alone (its sweep.json pins the
     manifest), and the global store still reads such files; the
     identity check applies either way. *)
  let names =
    if t.keyed then [ unit_basename key ] else [ res_basename (md5 want); unit_basename key ]
  in
  Mutex.protect t.mutex (fun () -> List.find_map check names)

let record t ~manifest ~key fields =
  let snapshot =
    Json.Obj
      [ ("schema_version", Json.Int Manifest.schema_version);
        ("kind", Json.String "unit");
        ("manifest", Manifest.to_json manifest);
        ("data", Json.Obj (("unit_key", Json.String key) :: fields)) ]
  in
  let name = if t.keyed then unit_basename key else res_basename (digest ~manifest ~key) in
  Mutex.protect t.mutex (fun () -> write_json_atomic (Filename.concat t.dir name) snapshot)

(* ------------------------------------------------------------------ *)
(* Listing and pruning                                                 *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_file : string;
  e_digest : string;
  e_kind : string;
  e_benchmark : string;
  e_bytes : int;
  e_valid : bool;
}

let has_prefix p name =
  String.length name > String.length p && String.sub name 0 (String.length p) = p

let entry_files t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun name ->
         Filename.check_suffix name ".json" && (has_prefix "res-" name || has_prefix "unit-" name))
  |> List.sort String.compare

let keys t =
  Mutex.protect t.mutex (fun () ->
      entry_files t
      |> List.filter_map (fun name ->
             if has_prefix "unit-" name then
               Option.bind (read_json (Filename.concat t.dir name)) unit_key_of_json
             else None)
      |> List.sort_uniq String.compare)

let key_kind key =
  match String.index_opt key '/' with
  | Some i -> String.sub key 0 i
  | None -> key

let entries t =
  Mutex.protect t.mutex (fun () ->
      List.map
        (fun name ->
          let path = Filename.concat t.dir name in
          let e_bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
          let invalid =
            { e_file = name; e_digest = "-"; e_kind = "-"; e_benchmark = "-"; e_bytes;
              e_valid = false }
          in
          match Option.map (fun j -> (j, stored_identity j)) (read_json path) with
          | Some (j, Some (id, key)) ->
            { invalid with
              e_digest = md5 id;
              e_kind = key_kind key;
              e_benchmark =
                Option.value ~default:"-"
                  (Option.bind (Json.path [ "manifest"; "benchmark" ] j) Json.get_string);
              e_valid = true }
          | Some (_, None) | None -> invalid)
        (entry_files t))

let prune_keep_latest t n =
  Mutex.protect t.mutex (fun () -> prune_latest ~dir:t.dir (entry_files t) n)

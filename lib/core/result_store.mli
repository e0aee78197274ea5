(** The durable per-unit store every sweep reads and writes through.

    A sweep unit (a Table-2 row, one detailed run, a checkpointed
    simulation, ...) is a pure function of its identity: the
    {!Mcsim_obs.Manifest} of the run that produces it plus a unit-key
    string. A store is a directory of unit files, each the
    {!Mcsim_obs.Metrics} unit snapshot ([schema_version]/[kind = "unit"]/
    [manifest]/[data] with [data.unit_key]), in one of two layouts:

    - the {e global} store ({!open_}) serves every sweep anywhere — the
      batch [--result-cache] and the [mcsim serve] daemon share one. It
      names entries [res-<MD5 of the identity>.json], and also reads
      checkpoint-format files, so an old [--checkpoint] directory is a
      result cache for the identities it recorded;
    - a {e namespace} ({!namespace}) holds one sweep's units, all of one
      manifest, named [unit-<sanitized key>-<digest8>.json]: a
      {!Checkpoint} directory, whose [sweep.json] pins that manifest.

    Reads verify the stored identity against the requested one, so a
    digest collision or a file copied in from another store or sweep is
    a miss, never the wrong result; an unreadable or corrupt file is a
    miss too, recomputed and overwritten. Writes are atomic and use a
    temp file private to the writer, so any number of handles and
    processes may record into one directory at once. A [t] is
    domain-safe. *)

type t

val open_ : dir:string -> t
(** The global store in [dir], created (with parents) if needed. *)

val namespace : dir:string -> t
(** The namespace store in [dir] (created if needed) — the unit files of
    a {!Checkpoint}. The caller pins the manifest its units share. *)

val digest : manifest:Mcsim_obs.Manifest.t -> key:string -> string
(** The global store's content address of a unit: the MD5 hex of the
    minified JSON of the manifest's identity
    ({!Mcsim_obs.Manifest.identity_json} — the creation timestamp does
    not participate) paired with [key]. *)

val find : t -> manifest:Mcsim_obs.Manifest.t -> key:string -> Mcsim_obs.Json.t option
(** The [data] object recorded for this identity ([unit_key] included),
    or [None] on a miss. The global store tries [res-<digest>.json]
    first, then the checkpoint-format name; either way the stored
    manifest identity and unit key must equal the requested ones. *)

val record :
  t -> manifest:Mcsim_obs.Manifest.t -> key:string -> (string * Mcsim_obs.Json.t) list -> unit
(** Durably store unit [fields] under this identity: the unit snapshot
    with [data] holding ["unit_key"] then [fields] (atomic write;
    re-recording overwrites). *)

val keys : t -> string list
(** The unit keys of every decodable checkpoint-format file, sorted. *)

(** One stored entry, as listed by {!entries}. Both content-addressed
    [res-*.json] files and checkpoint-format [unit-*.json] files are
    listed; [sweep.json]/[command.json] are not entries. *)
type entry = {
  e_file : string;  (** basename within the store *)
  e_digest : string;  (** identity digest recomputed from the content; "-" if invalid *)
  e_kind : string;  (** first [/]-segment of the unit key (["table2"], ["run"], ...) *)
  e_benchmark : string;  (** the manifest's benchmark, "-" if unset *)
  e_bytes : int;  (** file size *)
  e_valid : bool;  (** decodes as a unit snapshot with a unit key *)
}

val entries : t -> entry list
(** Every [res-*.json] and [unit-*.json] file, sorted by name. *)

val prune_keep_latest : t -> int -> string list
(** [prune_keep_latest t n] deletes all but the [n] most recently
    modified entry files (identity records like [sweep.json] are never
    touched) and returns the removed basenames, sorted — the knob that
    bounds on-disk cache growth.
    @raise Invalid_argument when [n < 0]. *)

(** {2 File primitives shared by the stores} *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; an existing directory
    (or a concurrent creator) is fine. *)

val read_json : string -> Mcsim_obs.Json.t option
(** The file's JSON, or [None] when it is missing, unreadable or not
    JSON. *)

val write_json_atomic : string -> Mcsim_obs.Json.t -> unit
(** Write to a temp file in the same directory, named for this writer
    alone ([.tmp-<basename>-<pid>-<domain>-<n>]), then rename, so the
    file is never observed torn even with concurrent writers. *)

val sanitize : string -> string
(** A key as a file-name fragment: characters outside [[A-Za-z0-9.-]]
    become [_], cut to 60 characters. Store file names pair it with a
    digest of the full key, which keeps collisions distinct. *)

val prune_latest : dir:string -> string list -> int -> string list
(** [prune_latest ~dir names n] deletes all but the [n] most recently
    modified of the files [names] in [dir] (equal mtimes break by name,
    so the survivors are deterministic) and returns the removed names,
    sorted.
    @raise Invalid_argument when [n < 0]. *)

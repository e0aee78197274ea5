(** Durable per-unit result store for long sweeps.

    A checkpoint is a directory holding one small JSON file per
    completed sweep unit (a Table-2 benchmark stage, an ablation point,
    a cluster-count cell, ...), each in the {!Mcsim_obs.Metrics}
    snapshot schema, plus a [sweep.json] identity record. An
    interrupted sweep re-opened on the same directory skips every
    recorded unit and recomputes only the missing ones, so resuming
    produces output identical to an uninterrupted run.

    Safety comes from the identity record: it pins the sweep [kind],
    the full {!Mcsim_obs.Manifest} (machine config digest, seed,
    engine, sampling policy, trace length — everything except the
    creation timestamp) and any sweep-specific parameters. Opening a
    directory whose identity disagrees raises a one-line [Failure]
    ("checkpoint ... was written by a different sweep"), which the CLI
    surfaces as [mcsim: error: ...] — a stale checkpoint is refused,
    never silently reused.

    Unit writes are atomic (write to a temp file in the same directory,
    then rename), so a unit file is either complete and valid or absent;
    a torn write from a killed process decodes as corrupt and is
    recomputed and overwritten on resume. A [t] is safe to share across
    domains: lookups and writes are serialized by an internal mutex. *)

type t

val open_ :
  dir:string ->
  kind:string ->
  manifest:Mcsim_obs.Manifest.t ->
  ?extra:(string * Mcsim_obs.Json.t) list ->
  unit ->
  t
(** Open (creating if needed, including parents) checkpoint directory
    [dir] for a sweep identified by [kind], [manifest] and the
    sweep-specific [extra] parameters. On first open the identity is
    written to [dir/sweep.json]; on re-open it is compared field by
    field ([manifest.created_unix] excepted).

    @raise Failure (one line) when [dir] exists with a different
    identity, or when [dir/sweep.json] is unreadable or corrupt. *)

val find : t -> string -> Mcsim_obs.Json.t option
(** [find t key] is the [data] object recorded for unit [key], or
    [None] when the unit is unrecorded (or its file is corrupt — a
    corrupt unit is treated as missing and will be overwritten by the
    next {!record}). *)

val record : t -> key:string -> (string * Mcsim_obs.Json.t) list -> unit
(** [record t ~key fields] durably stores unit [key]'s results. The
    unit file is a [Metrics]-schema snapshot ([kind = "unit"], the
    sweep's manifest, and [data] holding ["unit_key"] plus [fields]).
    Re-recording a key overwrites its file. *)

val keys : t -> string list
(** The keys of every decodable recorded unit, sorted. *)

val dir : t -> string
(** The directory this checkpoint lives in. *)

val unit_basename : string -> string
(** The file basename a unit [key] is stored under
    ([unit-<sanitized>-<digest8>.json]) — exported so {!Result_store}
    can read checkpoint-format entries and old checkpoint directories
    double as result caches. *)

(** {2 The unit executor}

    Every sweep driver runs its units through here: {!lookup} decodes
    each unit's recorded entry serially, before any fan-out, and
    {!fill} computes only the misses on the domain pool, recording each
    as it completes. A sweep without a checkpoint passes [None] and
    every unit is a miss. Because hits never reach the pool, [retries]
    and [inject_fault] see only the units that actually run: fault job
    indices count misses, in input order. *)

type ('a, 'b) lookup = {
  store : t option;
  key : 'a -> string;  (** the unit's checkpoint key *)
  encode : 'b -> (string * Mcsim_obs.Json.t) list;  (** the fields {!record}ed *)
  cached : ('a * 'b option) list;
      (** every unit in input order with its decoded entry; [None] is a
          miss. A caller may filter or force-miss units before {!fill}. *)
}

val lookup :
  t option ->
  key:('a -> string) ->
  encode:('b -> (string * Mcsim_obs.Json.t) list) ->
  decode:('a -> Mcsim_obs.Json.t -> 'b option) ->
  'a list ->
  ('a, 'b) lookup
(** Decode every unit's entry with [decode] (applied to the unit and
    its {!find} result); an undecodable entry is a miss. *)

val fill :
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  ('a -> 'b) ->
  ('a, 'b) lookup ->
  'b Mcsim_util.Pool.status list
(** Run [f] on the misses through {!Mcsim_util.Pool.parallel_map_status},
    recording each completed unit, and return one status per unit of
    [cached], in order (hits as [Done]). A unit that exhausts its
    retries is [Failed] and stays unrecorded. *)

val map :
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  t option ->
  key:('a -> string) ->
  encode:('b -> (string * Mcsim_obs.Json.t) list) ->
  decode:('a -> Mcsim_obs.Json.t -> 'b option) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!lookup} then {!fill}, re-raising the first failed unit's
    exception (with its backtrace) once every unit has run; the units
    that completed are recorded either way. *)

val map_matrix :
  ?retries:int ->
  ?backoff:(int -> float) ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  t option ->
  key:('g -> 'a -> string) ->
  encode:('b -> (string * Mcsim_obs.Json.t) list) ->
  decode:('g -> 'a -> Mcsim_obs.Json.t -> 'b option) ->
  prepare:('g -> 'p) ->
  ('p -> 'a -> 'b) ->
  'g list ->
  'a list ->
  'b list list
(** {!map} over the [groups × points] matrix, one result list per
    group. A group's shared preparation ([prepare], e.g. a benchmark's
    program and profile) runs first, on the pool, once per group that
    still has a unit to run; a fully recorded group is never prepared.
    [inject_fault] job indices restart at 0 for the units after the
    preparations. *)

val result_fields : Mcsim_cluster.Machine.result -> (string * Mcsim_obs.Json.t) list
(** The unit fields of a sweep cell that is one machine result:
    [[("result", Metrics.result_json r)]]. *)

val result_of_fields : Mcsim_obs.Json.t -> Mcsim_cluster.Machine.result option
(** Inverse of {!result_fields}, for {!lookup}'s [decode]. *)

(** {2 File primitives shared by the stores} *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; an existing directory
    (or a concurrent creator) is fine. *)

val read_json : string -> Mcsim_obs.Json.t option
(** The file's JSON, or [None] when it is missing, unreadable or not
    JSON. *)

val write_json_atomic : string -> Mcsim_obs.Json.t -> unit
(** Write to a temp file in the same directory, then rename, so the
    file is never observed torn. *)

val unit_snapshot :
  manifest:Mcsim_obs.Manifest.t -> key:string -> (string * Mcsim_obs.Json.t) list ->
  Mcsim_obs.Json.t
(** The unit file every store writes: a [Metrics]-schema snapshot with
    [kind = "unit"], [manifest], and [data] holding ["unit_key"] then
    the fields. *)

val write_command : dir:string -> (string * Mcsim_obs.Json.t) list -> unit
(** Write [dir/command.json] — the CLI invocation that started the
    sweep, stored before any unit runs so [mcsim resume] can
    reconstruct and finish it. Creates [dir] if needed. *)

val read_command : dir:string -> (string * Mcsim_obs.Json.t) list
(** Read back {!write_command}'s record.
    @raise Failure (one line) when [dir/command.json] is missing or
    corrupt — e.g. when [dir] is not a checkpoint directory. *)

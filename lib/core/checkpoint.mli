(** Resumable sweeps, and the unit executor every sweep runs through.

    A checkpoint is a {!Result_store} namespace — one small JSON unit
    file per completed sweep unit (a Table-2 benchmark stage, an
    ablation point, a cluster-count cell, ...) — plus a [sweep.json]
    identity record. An interrupted sweep re-opened on the same
    directory skips every recorded unit and recomputes only the missing
    ones, so resuming produces output identical to an uninterrupted run.

    Safety comes from the identity record: it pins the sweep [kind],
    the full {!Mcsim_obs.Manifest} (machine config digest, seed,
    engine, sampling policy, trace length — everything except the
    creation timestamp) and any sweep-specific parameters. Opening a
    directory whose identity disagrees raises a one-line [Failure]
    ("checkpoint ... was written by a different sweep"), which the CLI
    surfaces as [mcsim: error: ...] — a stale checkpoint is refused,
    never silently reused. Every unit file carries the manifest too,
    and a read verifies it, so a unit file copied in from another
    sweep's checkpoint is a miss.

    Unit writes are atomic, so a unit file is either complete and valid
    or absent; a torn write from a killed process decodes as corrupt and
    is recomputed and overwritten on resume. A [t] is safe to share
    across domains. *)

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
(** [find t key] is the [data] object recorded for unit [key] of this
    sweep, or [None] when the unit is unrecorded, its file is corrupt or
    it was written under another manifest (such a unit is treated as
    missing and will be overwritten by the next {!record}). *)

val record : t -> key:string -> (string * Mcsim_obs.Json.t) list -> unit
(** [record t ~key fields] durably stores unit [key]'s results under
    the sweep's manifest ({!Result_store.record}). Re-recording a key
    overwrites its file. *)

val keys : t -> string list
(** The keys of every decodable recorded unit, sorted. *)

val store : t -> Result_store.t
(** The checkpoint's unit files, as a store for {!lookup}. Its units'
    identity is the manifest [t] was opened with and their key. *)

(** {2 The unit executor}

    Every sweep — the drivers, the batch [run]/[sample] path, Table 2's
    result cache and the [mcsim serve] daemon — reads, computes and
    records its units through here: {!lookup} decodes each unit's entry
    from an ordered list of stores serially, before any fan-out, and
    {!fill} computes only the misses on the domain pool, recording each
    to every store as it completes. A sweep without stores runs every
    unit. Because hits never reach the pool, [retries] and
    [inject_fault] see only the units that actually run: fault job
    indices count misses, in input order.

    Units that share work (a benchmark's program, profile or native
    trace) share it through {!Mcsim_util.Pool.once} thunks captured by
    [f], so the work runs on the pool, once, and only if some unit that
    needs it misses. *)

type ('a, 'b) lookup = {
  stores : Result_store.t list;  (** read in order; every fresh unit is recorded to all *)
  unit : 'a -> Mcsim_obs.Manifest.t * string;  (** the unit's store identity *)
  encode : 'b -> (string * Mcsim_obs.Json.t) list;  (** the fields recorded *)
  cached : ('a * 'b option) list;
      (** every unit in input order with its decoded entry; [None] is a
          miss. A caller may filter or force-miss units before {!fill}. *)
}

val lookup :
  Result_store.t list ->
  unit:('a -> Mcsim_obs.Manifest.t * string) ->
  encode:('b -> (string * Mcsim_obs.Json.t) list) ->
  decode:('a -> Mcsim_obs.Json.t -> 'b option) ->
  'a list ->
  ('a, 'b) lookup
(** Each unit's entry from the first store that has one [decode]
    accepts (applied to the unit and the store's {!Result_store.find}
    result); a unit no store decodes is a miss. A hit in a later store
    is not copied into the earlier ones. *)

val stores :
  t option -> key:('a -> string) -> Result_store.t list * ('a -> Mcsim_obs.Manifest.t * string)
(** A driver's optional checkpoint as {!lookup}'s stores and unit
    identity: the units of a checkpointed sweep share its manifest and
    are told apart by [key]. Without a checkpoint there is no store, so
    no identity is ever asked for. *)

val fill :
  ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  ('a -> 'b) ->
  ('a, 'b) lookup ->
  'b Mcsim_util.Pool.status list
(** Run [f] on the misses through {!Mcsim_util.Pool.parallel_map_status},
    recording each completed unit to every store, and return one status
    per unit of [cached], in order (hits as [Done]). A unit that
    exhausts its retries is [Failed] and stays unrecorded. *)

val fill_with :
  ('a list -> 'b Mcsim_util.Pool.status list) -> ('a, 'b) lookup -> 'b Mcsim_util.Pool.status list
(** {!fill} for misses that share a fan-out of their own (Table 2 runs
    its missing rows through one {!Experiment} sweep): [run] gets every
    miss, in order, and returns one status each; it is not called when
    nothing misses. Every [Done] is then recorded to every store. *)

val map :
  ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  jobs:int ->
  t option ->
  key:('a -> string) ->
  encode:('b -> (string * Mcsim_obs.Json.t) list) ->
  decode:('a -> Mcsim_obs.Json.t -> 'b option) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!lookup} then {!fill} in a checkpoint, re-raising the first failed
    unit's exception (with its backtrace) once every unit has run; the
    units that completed are recorded either way. *)

val result_fields : Mcsim_cluster.Machine.result -> (string * Mcsim_obs.Json.t) list
(** The unit fields of a sweep cell that is one machine result:
    [[("result", Metrics.result_json r)]]. *)

val result_of_fields : Mcsim_obs.Json.t -> Mcsim_cluster.Machine.result option
(** Inverse of {!result_fields}, for {!lookup}'s [decode]. *)

(** {2 The CLI command record} *)

val write_command : dir:string -> (string * Mcsim_obs.Json.t) list -> unit
(** Write [dir/command.json] — the CLI invocation that started the
    sweep, stored before any unit runs so [mcsim resume] can
    reconstruct and finish it. Creates [dir] if needed. *)

val read_command : dir:string -> (string * Mcsim_obs.Json.t) list
(** Read back {!write_command}'s record.
    @raise Failure (one line) when [dir/command.json] is missing or
    corrupt — e.g. when [dir] is not a checkpoint directory. *)

(** One description of a [table2], [run] or [sample] invocation, and
    everything derived from it.

    A {!Protocol.sweep} is what the batch CLI, [mcsim resume] and the
    [mcsim serve] daemon all execute. This module turns it into the
    machine configuration, the committed trace, the {e units} — each an
    independently cacheable piece with its {!Mcsim.Result_store}
    identity — and the [command.json] record a checkpoint directory
    resumes from. Adding a machine knob means adding a field to the
    sweep, to its codec in {!Protocol}, to {!configs} here, and one CLI
    argument. *)

(** {2 Machines and traces} *)

val config :
  ?clusters:int ->
  ?topology:Mcsim_cluster.Interconnect.topology ->
  ?steering:Mcsim_cluster.Steering.policy ->
  what:string ->
  [ `Single | `Dual ] ->
  Mcsim_cluster.Machine.config
(** The single or dual machine, or with [clusters] the n-way partitioned
    one, wired as [topology] (default point-to-point) and steered by
    [steering] (default static).
    @raise Invalid_argument (one line) on a cluster count other than
    1, 2, 4 or 8.
    @raise Failure (one line, naming [what]) for a dynamic policy on a
    one-cluster machine. *)

val configs :
  Protocol.sweep -> Mcsim_cluster.Machine.config option * Mcsim_cluster.Machine.config
(** The machines a sweep simulates. For [Run]/[Sample], [(None, m)]
    with [m] from {!config}. For [Table2], the [(single_config,
    dual_config)] pair handed to {!Mcsim.Table2}: [None] keeps the stock
    single-cluster baseline, and only the clustered column is steered.
    @raise Failure (one line) for [--four-way] with [--clusters], and as
    {!config}. *)

val flat_trace :
  ?trace_cache:string ->
  ?clusters:int ->
  scheduler:Mcsim_compiler.Pipeline.scheduler ->
  seed:int ->
  max_instrs:int ->
  Mcsim_workload.Spec92.benchmark ->
  Mcsim_isa.Flat_trace.t
(** The benchmark's committed trace, compiled for [clusters] clusters
    (default 2, the binary both the single and dual machine run). With
    [trace_cache] it is memory-mapped from that {!Mcsim.Trace_store},
    which builds and saves it on the first use. *)

val manifest : Protocol.sweep -> Mcsim_obs.Manifest.t
(** The sweep's provenance, unstamped ([created_unix = 0]). For
    [Run]/[Sample] it is the single unit's {!Mcsim.Result_store}
    identity; for [Table2] it describes the clustered column and names
    every benchmark, as the [--metrics-out] snapshot records it. *)

val describe : Protocol.sweep -> string
(** ["compress on the dual-cluster machine, local scheduler"] — the
    headline of a [Run] or [Sample] report.
    @raise Invalid_argument on [Table2]. *)

(** {2 Units} *)

(** One independently cacheable piece of a sweep: its store identity
    plus the pure computation that produces its fields. *)
type unit_spec = {
  u_label : string;  (** the benchmark name *)
  u_manifest : Mcsim_obs.Manifest.t;
  u_key : string;
  u_compute : unit -> (string * Mcsim_obs.Json.t) list;
}

val units :
  ?trace_cache:string ->
  ?profile:Mcsim_util.Profile_counters.t ->
  Protocol.sweep ->
  unit_spec list * ((string * Mcsim_obs.Json.t) list array -> Mcsim_obs.Json.t)
(** The sweep's units — one per Table-2 row ({!Mcsim.Table2.row_store_unit}),
    or the one detailed run or sampled estimate — and the function that
    assembles their fields, in order, into the sweep's result. A [Run]
    unit accumulates its simulation into [profile] when given.
    @raise Failure as {!configs}. *)

val run_of_json : Mcsim_obs.Json.t -> (Mcsim_cluster.Machine.result * int) option
(** A [Run] unit's fields (or result): the machine result and the trace
    length. [None] on anything a unit cannot have produced. *)

val sample_of_json : seed:int -> Mcsim_obs.Json.t -> Mcsim_sampling.Sampling.t option
(** A [Sample] unit's fields; [seed] is the policy's offset seed. *)

val execute :
  ?checkpoint:string ->
  ?result_cache:string ->
  ?trace_cache:string ->
  ?profile:Mcsim_util.Profile_counters.t ->
  retries:int ->
  decode:(Mcsim_obs.Json.t -> 'a option) ->
  Protocol.sweep ->
  'a * bool
(** The batch CLI's path for a [Run] or [Sample] sweep (one unit), on
    the shared unit executor: {!Mcsim.Checkpoint.lookup} over the
    [checkpoint] directory (identity: the sweep kind, {!manifest} and
    the [machine] name) then the [result_cache] {!Mcsim.Result_store} —
    a record [decode] rejects is a miss — and otherwise
    {!Mcsim.Checkpoint.fill} with [retries], which records the unit to
    both. Returns the decoded value and whether it came from a cache.
    @raise Invalid_argument on [Table2], whose batch path is
    {!Mcsim.Table2.run_report}. *)

(** {2 The [command.json] record} *)

(** The invocation's output-only settings: everything [mcsim resume]
    needs beyond the sweep itself. *)
type outputs = {
  csv : bool;
  full : bool;
  profile : bool;
  metrics_out : string option;
  retries : int;
  trace_cache : string option;
  result_cache : string option;
}

val command_json : Protocol.sweep -> outputs -> (string * Mcsim_obs.Json.t) list
(** {!Protocol.sweep_to_json}'s fields followed by the [outputs]. *)

val of_command : (string * Mcsim_obs.Json.t) list -> Protocol.sweep * outputs
(** Inverse of {!command_json}. Also reads the records older versions
    wrote: ["command"] in place of ["kind"], ["clusters": null],
    ["sampling": null] for a sample run's default policy, and no cache,
    cluster, topology or steering fields. Absent outputs are off.
    @raise Failure (one line) as {!Protocol.sweep_of_json}. *)

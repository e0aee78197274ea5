(** The paper's experimental flow (§4), end to end.

    For one benchmark program: profile it, produce the {e native} binary
    (cluster-oblivious allocation) and one {e rescheduled} binary per
    scheduler of {!default_schedulers}, generate the committed traces,
    and run

    - the native binary on the single-cluster machine (the baseline),
    - each binary on the dual-cluster machine,

    reporting the paper's percentage speedup/slowdown metric
    [100 - 100 * (C_dual / C_single)] per scheduler
    ({!run_many_status}, the engine of Table 2).

    It also owns what the other trace-driven sweeps share: the one
    read-or-walk trace path ({!trace}) and the cell runner
    {!run_cells} behind the steer and cluster-count matrices. *)

type run = {
  scheduler : string;  (** "none", "local", ... *)
  dual : Mcsim_cluster.Machine.result;
  speedup_pct : float;
  static_single : int;  (** static single-distributed machine instructions *)
  static_dual : int;
  spills : int;  (** live ranges spilled to memory *)
}

type comparison = {
  benchmark : string;
  trace_instrs : int;
  single : Mcsim_cluster.Machine.result;  (** native on the single-cluster machine *)
  runs : run list;  (** one per {!default_schedulers} entry, in order *)
}

val default_schedulers : (string * Mcsim_compiler.Pipeline.scheduler) list
(** [("none", Sched_none); ("local", default_local)] — the two columns of
    Table 2. *)

val scheduler_ident : Mcsim_compiler.Pipeline.scheduler -> string
(** The parameter-bearing identity string used as the [scheduler] field
    of a {!Trace_store.key} (e.g. ["local:2:0"]) — unlike
    {!Mcsim_compiler.Pipeline.scheduler_name}, distinct parameters give
    distinct idents, so differently-tuned schedulers never share a
    cached trace. *)

val scheduler_ident_n : clusters:int -> Mcsim_compiler.Pipeline.scheduler -> string
(** {!scheduler_ident} for a binary compiled for [clusters] clusters:
    the cluster count changes the partitioning and the residue-class
    register assignment, hence the trace, so non-default counts carry a
    ["@Ncl"] suffix (e.g. ["local:2:0@4cl"]). [~clusters:2] is exactly
    {!scheduler_ident}, so historical trace-store entries keep their
    keys. *)

val trace :
  Trace_store.t option ->
  clusters:int ->
  seed:int ->
  max_instrs:int ->
  benchmark:string ->
  Mcsim_compiler.Pipeline.scheduler ->
  (unit -> Mcsim_compiler.Pipeline.compiled) ->
  Mcsim_isa.Flat_trace.t
(** The committed trace of [benchmark]'s binary [compile ()], compiled
    by [scheduler] for [clusters] clusters and walked with [seed] up to
    [max_instrs] instructions. With a store it is memory-mapped from
    there when present, otherwise walked and saved; [compile] runs only
    when the trace is walked. Every path that caches a compiled trace
    (this module's sweeps, the serve layer's runs) reads it through
    here, under the key {!Trace_store.key} of [benchmark], seed, budget
    and {!scheduler_ident_n}, so they share entries. *)

val run_many_status :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?engine:Mcsim_cluster.Machine.engine ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  ?single_config:Mcsim_cluster.Machine.config ->
  ?dual_config:Mcsim_cluster.Machine.config ->
  ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  ?trace_cache:string ->
  Mcsim_ir.Program.t list ->
  comparison Mcsim_util.Pool.status list
(** Run the flow for many benchmarks, fanning the independent
    (benchmark × scheduler × machine-config) simulations out over
    [jobs] domains (default {!Mcsim_util.Pool.default_jobs}; [~jobs:1]
    runs serially). Results are in benchmark order regardless of [jobs].

    With [sampling], every machine simulation (single-cluster baseline
    and each dual run) is the sampled estimate
    ({!Mcsim_sampling.Sampling.estimate}) instead of a full detailed
    run: same [comparison] shape, cycles and IPC are the sampled
    extrapolations. Traces must be long enough for two complete sampling
    units (@raise Invalid_argument otherwise).

    [retries] and [inject_fault] are per-unit durability knobs,
    forwarded to {!Mcsim_util.Pool.parallel_map_status}. Failure
    degrades to data: a benchmark with a unit that exhausted its
    retries is [Failed] with that unit's failure (its exception and
    attempt count; render it with {!Mcsim_util.Pool.failure_message})
    instead of aborting the sweep.

    [checkpoint] names a durable {!Checkpoint} directory: every
    completed unit (a benchmark's committed trace length, its
    single-cluster baseline, each scheduler's dual run) is recorded
    there as it finishes and skipped on the next call, so an
    interrupted sweep resumes where it died (only failed units rerun)
    and returns exactly what the uninterrupted sweep would have. A
    directory written by a different sweep (config, seed, engine,
    sampling, benchmark set or trace budget) is refused with [Failure].
    The identity also records the scheduler names of
    {!default_schedulers}, the two the sweep runs.

    Determinism: every simulation derives all randomness from [seed]
    (and, under [sampling], the policy's own seed) plus its task
    description, and tasks share only immutable data (the per-benchmark
    profile, native binary and trace, made once by the first task that
    needs them — {!Mcsim_util.Pool.once}), so the output is bit-for-bit
    identical for every [jobs] value — and, because cached units are
    exact recordings, for every interruption point.

    [trace_cache] names a {!Trace_store} directory: every trace the
    sweep needs (the native binary's and each rescheduled binary's) is
    looked up there by [(benchmark name, scheduler, seed, max_instrs)]
    and memory-mapped on a hit instead of being re-walked; misses are
    generated as usual and saved for the next run. Cached traces are
    byte-identical to freshly walked ones, so results are unchanged —
    the store assumes a benchmark name denotes one program. *)

val run_many :
  ?jobs:int ->
  ?max_instrs:int ->
  ?seed:int ->
  ?sampling:Mcsim_sampling.Sampling.policy ->
  Mcsim_ir.Program.t list ->
  comparison list
(** {!run_many_status} on the paper's machine pair, as if the sweep had
    run serially: the first failed benchmark's exception propagates,
    with its original backtrace, once the rest of the sweep has
    finished. *)

val run_cells :
  ?jobs:int ->
  ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) ->
  ?checkpoint:string ->
  kind:string ->
  config:Mcsim_cluster.Machine.config ->
  extra:(string * Mcsim_obs.Json.t) list ->
  seed:int ->
  max_instrs:int ->
  key:('c -> string) ->
  cell:('c -> int * Mcsim_compiler.Pipeline.scheduler * Mcsim_cluster.Machine.config) ->
  Mcsim_workload.Spec92.benchmark list ->
  'c list ->
  Mcsim_cluster.Machine.result list list
(** The [benchmarks × cells] matrix of a sweep whose every cell is one
    compile, walk and simulation, as [mcsim steer] and [mcsim clusters]
    run: [cell c] is [(clusters, scheduler, config)] — the benchmark's
    program compiled by [scheduler] for [clusters] clusters, walked
    with [seed] up to [max_instrs] instructions and run on [config].
    One result list per benchmark, cells in order.

    The cells run on {!Checkpoint.map} over [jobs] domains (default
    {!Mcsim_util.Pool.default_jobs}), every missing cell its own unit;
    a benchmark's program and profile are made once, by the first of
    its cells that runs ({!Mcsim_util.Pool.once}). Results are
    identical for every [jobs]. With [checkpoint] the directory's identity is [kind], a
    manifest of [config], [seed], [max_instrs] and the benchmark list,
    and [extra]; each cell is recorded under ["BENCHMARK/" ^ key c]. *)

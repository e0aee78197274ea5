(** Ablation studies for the design choices DESIGN.md calls out. Each
    sweep runs one benchmark across a one-dimensional design-space slice
    and reports dual-cluster cycles (and the Table-2 metric against the
    shared single-cluster baseline).

    The sweeps are declared in one table, {!kinds}: each entry names its
    [mcsim ablate] spelling, its sweep name and its labelled points, and
    {!run} executes any of them. {!run} fans the points out through
    {!Checkpoint.map}, one unit per point, over [?jobs] domains (default
    {!Mcsim_util.Pool.default_jobs}); results are bit-for-bit identical
    for every [jobs] value. The points of one sweep share the
    benchmark's profile, native trace, single-cluster baseline and
    local-scheduler trace through {!Mcsim_util.Pool.once}: each is made
    by the first point that needs it, so a sweep whose points are all
    recorded computes none of them.

    [?retries] and [?inject_fault] are the executor's durability knobs,
    and [?checkpoint] its store: with a checkpoint directory, each
    completed point is durably recorded (keyed by label) and skipped
    when the sweep reruns, so an interrupted sweep finishes from where
    it died with identical points. A directory holding a different
    sweep (name, benchmark, trace budget or point set) is refused with
    [Failure]. *)

type point = {
  label : string;
  dual_cycles : int;
  speedup_pct : float;
  replays : int;
  dual_distributed : int;
}

type sweep = {
  sweep_name : string;
  benchmark : string;
  points : point list;
}

type kind
(** One design-space sweep: its CLI name, sweep name and labelled
    points. *)

val kinds : kind list
(** Every sweep, in [mcsim ablate] order:
    - [buffers]: operand/result transfer-buffer entries per cluster, 2
      to 32 (paper: 8), on the local-scheduler binary;
    - [threshold]: the local scheduler's compile-time balance constant;
    - [partitioners]: none / random / round-robin / local on the
      dual-cluster machine;
    - [globals]: global-register designation, none / sp only / sp+gp
      (paper), for the same native binary;
    - [dq]: the single-cluster machine with dispatch queues of 32–256
      entries — the compress effect's other half (paper §4.2);
    - [unroll]: the §6 loop-unrolling extension — inner loops unrolled
      by 1/2/4 and rescheduled with the local scheduler, against the
      non-unrolled native baseline (factor 1 reuses the shared
      local-scheduler trace);
    - [queues]: the paper's single dispatch queue per cluster vs the
      R10000-style per-class split (§1), at equal total entries;
    - [memory]: the memory interface's fetch latency (the paper fixes
      it at 16 cycles), each point re-running both machines with the
      same memory;
    - [mshrs]: conventional n-entry MSHR files vs the paper's inverted
      MSHR (its reference [12]). *)

val kind_name : kind -> string
(** The sweep's CLI name: [mcsim ablate NAME BENCHMARK]. *)

val run :
  ?jobs:int -> ?max_instrs:int -> ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  kind -> Mcsim_workload.Spec92.benchmark -> sweep
(** The [kind] sweep on one benchmark, on traces of [max_instrs]
    (default 60_000) instructions. *)

val unrolling_kernel :
  ?jobs:int -> ?max_instrs:int -> ?retries:int ->
  ?inject_fault:(job:int -> attempt:int -> bool) -> ?checkpoint:string ->
  unit -> sweep
(** The [unroll] sweep on a hand-written reduction kernel whose
    iterations are genuinely independent apart from one accumulator —
    the code shape the paper's unrolling proposal assumes. *)

val render : sweep -> string

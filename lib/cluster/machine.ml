module Reg = Mcsim_isa.Reg
module Op_class = Mcsim_isa.Op_class
module Instr = Mcsim_isa.Instr
module Flat_trace = Mcsim_isa.Flat_trace
module Issue_rules = Mcsim_isa.Issue_rules
module Regfile = Mcsim_cpu.Regfile
module Fu = Mcsim_cpu.Fu
module Cache = Mcsim_cache.Cache
module Mcfarling = Mcsim_branch.Mcfarling
module Deque = Mcsim_util.Deque
module Fixed_queue = Mcsim_util.Fixed_queue
module Freelist = Mcsim_util.Freelist
module Stats = Mcsim_util.Stats
module Vec = Mcsim_util.Vec
module Bucket_queue = Mcsim_util.Bucket_queue
module Profile_counters = Mcsim_util.Profile_counters

type queue_split = Unified | Per_class

(* Queue index under Per_class: 0 = integer (and control), 1 = floating
   point, 2 = memory - the R10000/21264 arrangement the paper contrasts
   its single queue with. *)
let queue_of_class (op : Op_class.t) split =
  match split with
  | Unified -> 0
  | Per_class -> (
    match op with
    | Int_multiply | Int_other | Control -> 0
    | Fp_divide _ | Fp_other -> 1
    | Load | Store -> 2)

let num_queues = function Unified -> 1 | Per_class -> 3

(* Per-queue capacity: the integer queue gets half the entries, fp and
   memory a quarter each (rounded up). *)
let queue_capacity split dq_entries q =
  match split with
  | Unified -> dq_entries
  | Per_class -> if q = 0 then (dq_entries + 1) / 2 else (dq_entries + 3) / 4

type engine = [ `Scan | `Wakeup ]

type config = {
  assignment : Assignment.t;
  topology : Interconnect.topology;
  steering : Steering.policy;
  dq_entries : int;
  phys_per_bank : int;
  fetch_width : int;
  dispatch_width : int;
  retire_width : int;
  issue_limits : Issue_rules.limits;
  queue_split : queue_split;
  operand_buffer_entries : int;
  result_buffer_entries : int;
  icache : Cache.config;
  dcache : Cache.config;
  predictor : Mcfarling.config;
  redirect_penalty : int;
  replay_threshold : int;
  replay_penalty : int;
}

let single_cluster () =
  { assignment = Assignment.single;
    topology = Interconnect.Point_to_point;
    steering = Steering.Static;
    dq_entries = 128;
    phys_per_bank = 128;
    fetch_width = 12;
    dispatch_width = 12;
    retire_width = 8;
    issue_limits = Issue_rules.single_cluster;
    queue_split = Unified;
    operand_buffer_entries = 8;
    result_buffer_entries = 8;
    icache = Cache.default_config;
    dcache = Cache.default_config;
    predictor = Mcfarling.default_config;
    redirect_penalty = 1;
    replay_threshold = 8;
    replay_penalty = 6 }

let dual_cluster () =
  { (single_cluster ()) with
    assignment = Assignment.create ~num_clusters:2 ();
    dq_entries = 64;
    phys_per_bank = 64;
    issue_limits = Issue_rules.dual_per_cluster }

let quad_cluster () =
  { (single_cluster ()) with
    assignment = Assignment.create ~num_clusters:4 ();
    dq_entries = 32;
    phys_per_bank = 32;
    issue_limits = Issue_rules.four_way_dual_per_cluster;
    operand_buffer_entries = 4;
    result_buffer_entries = 4 }

let octa_cluster () =
  { (single_cluster ()) with
    assignment = Assignment.create ~num_clusters:8 ();
    dq_entries = 16;
    phys_per_bank = 32;
    issue_limits = Issue_rules.octa_per_cluster;
    operand_buffer_entries = 2;
    result_buffer_entries = 2 }

let single_cluster_4 () =
  { (single_cluster ()) with
    dq_entries = 64;
    phys_per_bank = 64;
    fetch_width = 6;
    dispatch_width = 6;
    retire_width = 4;
    issue_limits = Issue_rules.four_way_single }

let dual_cluster_2x2 () =
  { (single_cluster_4 ()) with
    assignment = Assignment.create ~num_clusters:2 ();
    dq_entries = 32;
    phys_per_bank = 32;
    issue_limits = Issue_rules.four_way_dual_per_cluster;
    operand_buffer_entries = 4;
    result_buffer_entries = 4 }

let config_for_clusters ?(topology = Interconnect.Point_to_point) clusters =
  let base =
    match clusters with
    | 1 -> single_cluster ()
    | 2 -> dual_cluster ()
    | 4 -> quad_cluster ()
    | 8 -> octa_cluster ()
    | n ->
      invalid_arg (Printf.sprintf "Machine.config_for_clusters: %d (want 1, 2, 4 or 8)" n)
  in
  { base with topology }

let validate_config c =
  if Assignment.num_clusters c.assignment < 1 || Assignment.num_clusters c.assignment > 8 then
    invalid_arg "Machine: 1 to 8 clusters";
  if c.dq_entries < 1 then invalid_arg "Machine: dq_entries < 1";
  if c.phys_per_bank < 32 then invalid_arg "Machine: phys_per_bank < 32";
  if c.fetch_width < 1 || c.dispatch_width < 1 || c.retire_width < 1 then
    invalid_arg "Machine: widths must be >= 1";
  if c.operand_buffer_entries < 1 || c.result_buffer_entries < 1 then
    invalid_arg "Machine: buffer entries must be >= 1";
  if c.redirect_penalty < 0 || c.replay_penalty < 0 then
    invalid_arg "Machine: penalties must be >= 0";
  if c.replay_threshold < 1 then invalid_arg "Machine: replay_threshold < 1";
  Cache.validate_config c.icache;
  Cache.validate_config c.dcache

type role = Single_copy | Master_copy | Slave_copy

let role_to_string = function
  | Single_copy -> "single"
  | Master_copy -> "master"
  | Slave_copy -> "slave"

type event =
  | Ev_fetch of { cycle : int; seq : int }
  | Ev_dispatch of { cycle : int; seq : int; cluster : int; role : role; scenario : int }
  | Ev_issue of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_operand_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
  | Ev_result_forward of { cycle : int; seq : int; from_cluster : int; to_cluster : int }
  | Ev_suspend of { cycle : int; seq : int; cluster : int }
  | Ev_wakeup of { cycle : int; seq : int; cluster : int }
  | Ev_writeback of { cycle : int; seq : int; cluster : int; role : role }
  | Ev_retire of { cycle : int; seq : int }
  | Ev_replay of { cycle : int; seq : int }

let pp_event fmt = function
  | Ev_fetch { cycle; seq } -> Format.fprintf fmt "[%4d] fetch #%d" cycle seq
  | Ev_dispatch { cycle; seq; cluster; role; scenario } ->
    Format.fprintf fmt "[%4d] dispatch #%d C%d %s (scenario %d)" cycle seq cluster
      (role_to_string role) scenario
  | Ev_issue { cycle; seq; cluster; role } ->
    Format.fprintf fmt "[%4d] issue #%d C%d %s" cycle seq cluster (role_to_string role)
  | Ev_operand_forward { cycle; seq; from_cluster; to_cluster } ->
    Format.fprintf fmt "[%4d] operand #%d C%d -> operand buffer of C%d" cycle seq from_cluster
      to_cluster
  | Ev_result_forward { cycle; seq; from_cluster; to_cluster } ->
    Format.fprintf fmt "[%4d] result #%d C%d -> result buffer of C%d" cycle seq from_cluster
      to_cluster
  | Ev_suspend { cycle; seq; cluster } ->
    Format.fprintf fmt "[%4d] suspend #%d C%d" cycle seq cluster
  | Ev_wakeup { cycle; seq; cluster } ->
    Format.fprintf fmt "[%4d] wakeup #%d C%d" cycle seq cluster
  | Ev_writeback { cycle; seq; cluster; role } ->
    Format.fprintf fmt "[%4d] writeback #%d C%d %s" cycle seq cluster (role_to_string role)
  | Ev_retire { cycle; seq } -> Format.fprintf fmt "[%4d] retire #%d" cycle seq
  | Ev_replay { cycle; seq } -> Format.fprintf fmt "[%4d] replay from #%d" cycle seq

type cstate = C_waiting | C_issued | C_suspended | C_squashed

(* Local physical sources are packed into an int, [(phys lsl 1) lor bank]
   with bank 0 = integer and 1 = floating point, so a copy's source array
   carries no per-element tuple boxes. *)
let src_code (b : Regfile.bank) phys =
  (phys lsl 1) lor (match b with Regfile.B_int -> 0 | Regfile.B_fp -> 1)

let src_bank code : Regfile.bank = if code land 1 = 0 then Regfile.B_int else Regfile.B_fp
let src_phys code = code lsr 1
let bank_bit (b : Regfile.bank) = match b with Regfile.B_int -> 0 | Regfile.B_fp -> 1

(* An instruction may source at most two registers (Instr.make enforces
   it), so per-copy source and operand-entry storage is a fixed two-slot
   array owned by the pooled record. *)
let max_srcs = 2

(* validate_config caps the machine at 8 clusters: a group has at most
   7 slave copies, so the slave array is fixed too. *)
let max_slaves = 7

(* Copies and groups live in per-state slab pools (see
   [Freelist.Slab]): dispatch recycles a record and overwrites every
   field instead of allocating, retire and squash return records to the
   pool. All fields are therefore mutable; [c_slot]/[g_slot] are the
   pool indices. The old [dst_alloc] option-of-record is flattened into
   the (reg, bank, new, prev) fields, with [c_dst_new = -1] for "no
   destination". *)
type copy = {
  c_slot : int;
  mutable c_seq : int;
  mutable c_cluster : int;
  mutable c_role : role;
  mutable c_op : Op_class.t;  (** architectural operation (master/single) *)
  mutable c_issue_class : Op_class.t;  (** issue-slot class this copy consumes *)
  c_srcs : int array;  (** local physical sources, see {!src_code}; first [c_nsrcs] valid *)
  mutable c_nsrcs : int;
  mutable c_dst_reg : Reg.t;  (** meaningful only when [c_dst_new >= 0] *)
  mutable c_dst_bank : Regfile.bank;
  mutable c_dst_new : int;  (** renamed physical destination; -1 = none *)
  mutable c_dst_prev : int;  (** previous mapping (freed at retire) *)
  mutable c_forwards : bool;
  mutable c_receives_result : bool;
  mutable c_result_forward : bool;  (** master must allocate a result entry *)
  mutable c_has_slave_operand : bool;  (** master waits for the slave's operand *)
  mutable c_num_operand_entries : int;  (** entries a forwarding slave needs *)
  mutable c_state : cstate;
  mutable c_issue : int;
  mutable c_finish : int;
  mutable c_wait_srcs : int;
      (** wakeup engine: source events still outstanding before every
          operand of this copy is ready *)
  c_operand_ents : int array;  (** first [c_operand_live] valid *)
  mutable c_operand_live : int;
  mutable c_result_entry : int;
      (** on a receiving slave: the entry (in its own cluster's result
          buffer) reserved by the master; -1 when none *)
  mutable c_master_cluster : int;  (** the master copy's cluster *)
  mutable c_group : group;
}

and group = {
  g_slot : int;
  mutable g_seq : int;
      (** position in the current trace — all dynamic payloads (memory
          address, branch outcome) are read back from the flat trace at
          this index *)
  mutable g_scenario : int;
  mutable g_master : copy;
      (** the executing copy (single or master); [dummy_copy] only
          transiently inside [try_dispatch_one] *)
  g_slaves : copy array;  (** first [g_nslaves] valid, one per participating other cluster *)
  mutable g_nslaves : int;
  mutable g_token : Mcfarling.token option;
  mutable g_mispred : bool;
}

(* Shared read-only sentinels for freshly built pool records. Never
   mutated and never simulated (dummy state is [C_squashed], which every
   consumer filters out), so sharing them across states and domains is
   safe. *)
let rec dummy_group =
  { g_slot = -1; g_seq = -1; g_scenario = 0; g_master = dummy_copy; g_slaves = [||];
    g_nslaves = 0; g_token = None; g_mispred = false }

and dummy_copy =
  { c_slot = -1; c_seq = -1; c_cluster = 0; c_role = Single_copy;
    c_op = Op_class.Int_other; c_issue_class = Op_class.Int_other;
    c_srcs = [||]; c_nsrcs = 0;
    c_dst_reg = Reg.Int_reg 0; c_dst_bank = Regfile.B_int; c_dst_new = -1; c_dst_prev = -1;
    c_forwards = false; c_receives_result = false; c_result_forward = false;
    c_has_slave_operand = false; c_num_operand_entries = 0;
    c_state = C_squashed; c_issue = -1; c_finish = max_int; c_wait_srcs = 0;
    c_operand_ents = [||]; c_operand_live = 0; c_result_entry = -1;
    c_master_cluster = 0; c_group = dummy_group }

let make_pool_copy slot =
  { c_slot = slot; c_seq = -1; c_cluster = 0; c_role = Single_copy;
    c_op = Op_class.Int_other; c_issue_class = Op_class.Int_other;
    c_srcs = Array.make max_srcs 0; c_nsrcs = 0;
    c_dst_reg = Reg.Int_reg 0; c_dst_bank = Regfile.B_int; c_dst_new = -1; c_dst_prev = -1;
    c_forwards = false; c_receives_result = false; c_result_forward = false;
    c_has_slave_operand = false; c_num_operand_entries = 0;
    c_state = C_squashed; c_issue = -1; c_finish = max_int; c_wait_srcs = 0;
    c_operand_ents = Array.make max_srcs (-1); c_operand_live = 0; c_result_entry = -1;
    c_master_cluster = 0; c_group = dummy_group }

let copy_slot (c : copy) = c.c_slot

let make_pool_group slot =
  { g_slot = slot; g_seq = -1; g_scenario = 0; g_master = dummy_copy;
    g_slaves = Array.make max_slaves dummy_copy; g_nslaves = 0;
    g_token = None; g_mispred = false }

let group_slot (g : group) = g.g_slot

type cluster_state = {
  cl_id : int;
  rf : Regfile.t;
  fu : Fu.t;
  dqs : copy Deque.t array;
      (** scan engine: one queue ([Unified]) or int/fp/mem ([Per_class]) *)
  dq_waiting : int array;  (** per queue: entries occupied by waiting copies *)
  mutable cl_waiting : int;
      (** running total of [dq_waiting] — updated at enqueue, issue and
          squash so dispatch steering reads it in O(1) instead of
          rescanning every queue per attempt; [occupancy_snapshot]
          asserts agreement with the scan *)
  wait_regs : copy Vec.t array array;
      (** wakeup engine: per bank bit, per physical register, the waiting
          copies indexed under that not-yet-written source *)
  ready_qs : copy Vec.t array;
      (** wakeup engine: per-queue list of copies whose sources are all
          ready (possibly still structurally blocked) *)
  ready_dirty : bool array;  (** ready list needs re-sorting by seq *)
  operand_buf : Transfer_buffer.t;  (** written by slaves in the other cluster *)
  result_buf : Transfer_buffer.t;  (** written by masters in the other cluster *)
}

let total_waiting cl = Array.fold_left ( + ) 0 cl.dq_waiting

type result = {
  cycles : int;
  retired : int;
  ipc : float;
  single_distributed : int;
  dual_distributed : int;
  replays : int;
  branch_accuracy : float;
  icache_miss_rate : float;
  dcache_miss_rate : float;
  counters : (string * int) list;
  counter_lookup : Stats.lookup;
}

let counter r name = Stats.lookup_get r.counter_lookup name

type fetched = {
  f_idx : int;  (** trace position (= seq) *)
  f_token : Mcfarling.token option;
  f_mispred : bool;
}

type occupancy = {
  oc_cycle : int;
  oc_rob : int;
  oc_dispatch_queues : int array;
  oc_operand_buffers : int array;
  oc_result_buffers : int array;
}

(* The counters bumped once (or more) per instruction, interned as live
   cells at [init_state] so the hot path pays a plain [incr] instead of a
   string hash per event. They remain ordinary members of [ctrs]. *)
type hot_counters = {
  k_retired : int ref;
  k_single_distributed : int ref;
  k_dual_distributed : int ref;
  k_slave_issues : int ref;
  k_scenarios : int ref array;  (* scenario_0 .. scenario_5 *)
  k_stall_rob_full : int ref;
  k_stall_dq_full : int ref;
  k_stall_phys : int ref;
  k_ooo_issues : int ref;
  k_ooo_issue_distance : int ref;
  k_issue_active : int ref;
  k_both_active : int ref;
  k_fetch_stall : int ref;
  k_icache_fetch_misses : int ref;
  k_mispredicted_fetches : int ref;
  k_redirects : int ref;
  k_squashed_copies : int ref;
}

type state = {
  cfg : config;
  engine : engine;
  n_clust : int;
  hops : int array;
      (** interconnect hop latencies, flattened [src * n_clust + dst]
          ({!Interconnect.matrix}); the dual machine's point-to-point
          table is all ones, the scalar "+1" the transfer paths used to
          hard-code *)
  mutable assignment : Assignment.t;  (* current phase's register assignment *)
  mutable trace : Flat_trace.t;
  mutable clusters : cluster_state array;
  mutable plan_memo : Distribution.plan option array;
      (** distribution plans memoized per [(pc lsl 3) lor prefer]
          ([validate_config] caps clusters at 8, so [prefer] fits three
          bits): [Distribution.plan] is pure in (assignment, prefer,
          instr), so each static instruction is planned at most once per
          preferred cluster per assignment. Cleared on [load_phase]. *)
  mutable plan_instrs : Instr.t array;
      (** the interned instruction each memo slot was planned for
          (physical identity is the validity check); [plan_dummy] marks
          an empty slot *)
  mutable splan_memo : Distribution.plan option array;
      (** {!Distribution.plan_steered} memoized per
          [(pc lsl 3) lor master], mirroring [plan_memo]
          ([plan_steered] is pure in (assignment, master, instr));
          only populated under a dynamic steering policy *)
  mutable splan_instrs : Instr.t array;
  plan_dummy : Instr.t;
  steer_dynamic : bool;
      (** a dynamic steering policy is active and the machine has more
          than one cluster — the one test the dispatch hot path pays *)
  steer_train : bool;  (** policy is [Ineffectual]: train at retire *)
  mutable steer_rr : int;  (** [Modulo]: next cluster, advanced per dispatch *)
  mutable steer_kind : int;
      (** classification of the latest dynamic decision: 0 = policy hit,
          1 = fell back to least-loaded, 2 = predicted-dead exile —
          promoted to the [steer_*] counters only when the dispatch
          attempt succeeds *)
  mutable steer_hits : int;
  mutable steer_fallbacks : int;
  mutable steer_dead_exiles : int;
  ineff : Steering.Ineff_table.t;
      (** per-pc dead-result predictor ([Ineffectual] only; empty-trained
          otherwise) *)
  arch_last_pc : int array;
      (** per architectural register ({!Reg.flat_index}): pc of the
          youngest retired writer, -1 when none this phase — the
          instruction the next overwrite's verdict trains *)
  arch_read : bool array;
      (** whether the youngest retired writer's value has been read *)
  icache : Cache.t;
  dcache : Cache.t;
  predictor : Mcfarling.t;
  rob : group Deque.t;
  fetch_buffer : fetched Fixed_queue.t;
  ctrs : Stats.counter_set;
  hot : hot_counters;
  emit : event -> unit;
  observed : bool;
      (** an event sink is attached; [Ev_*] records are only constructed
          when this is set, so unobserved runs allocate no events *)
  on_occupancy : (occupancy -> unit) option;
  occupancy_period : int;  (** cycles between occupancy samples *)
  prof : Profile_counters.t option;
  src_wheel : copy Bucket_queue.t;
      (** wakeup engine: copies scheduled at the cycle one of their
          pending sources becomes ready (drained at issue) *)
  wake_wheel : copy Bucket_queue.t;
      (** wakeup engine: suspended scenario-5 slaves, keyed by the cycle
          the master's result reaches their cluster *)
  wake_scratch : copy Vec.t;  (** wake-phase staging, sorted by seq *)
  copy_pool : copy Freelist.Slab.t;
  group_pool : group Freelist.Slab.t;
  limbo : copy Vec.t;
      (** squashed copies awaiting recycling: stale references to them
          may persist in the wheels until every pre-squash source event
          has fired, so they re-enter the pool only once
          [limbo_flush_at] passes (see [squash_copy]/[replay]) *)
  mutable limbo_flush_at : int;
  mutable src_drain : copy -> unit;  (** preallocated drain callbacks: *)
  mutable wake_drain : copy -> unit;
      (** [Bucket_queue.drain_upto] takes a closure; capturing [st] fresh
          each cycle would put two minor-heap blocks back on the issue
          and wake paths, so both callbacks are built once per state *)
  mutable scratch_work : int;  (** per-phase examined-entry accumulator *)
  mutable cycle : int;
  mutable trace_idx : int;
  mutable fetch_resume : int;  (** first cycle fetch may proceed *)
  mutable redirect_pending : bool;  (** mispredicted branch fetched, not yet executed *)
  mutable last_fetch_line : int;
  mutable max_finish : int;  (** latest known completion among issued copies *)
  mutable stall_cycles : int;  (** consecutive no-progress cycles *)
  pending_train : (int * int * Mcfarling.token * bool) Deque.t;
      (** (train_cycle, seq, token, taken), pushed at the back in
          nondecreasing train-cycle order (branches issue at
          nondecreasing cycles and [Control] latency is constant), so
          everything due sits at the front *)
  mutable max_issued_seq : int;
      (** youngest instruction issued so far (issue-disorder metric) *)
  mutable head_blocked_seq : int;
  mutable head_blocked_age : int;
      (** seq and consecutive cycles the oldest in-flight instruction has
          been issue-blocked on a transfer buffer — replay trigger even
          when younger instructions keep the machine busy (two plain ints
          rather than a tuple: the tracker updates every blocked cycle) *)
  mutable last_replay_seq : int;
  mutable last_replay_retired : int;
      (** victim seq and retired count at the most recent replay, to
          detect a replay that changed nothing (same victim again with no
          instruction retired in between) *)
  mutable starving_seq : int;
      (** anti-livelock freeze: while >= 0, groups younger than this seq
          may not claim transfer-buffer entries (see [buffer_frozen]) *)
}

let rob_capacity = 16384

let bank_of_op_for_slot (b : Regfile.bank) : Op_class.t =
  match b with Regfile.B_int -> Op_class.Int_other | Regfile.B_fp -> Op_class.Fp_other

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let stage_fetch = 0
let stage_dispatch = 1
let stage_issue = 2
let stage_wake = 3
let stage_retire = 4
let stage_train = 5
let profile_stages = [ "fetch"; "dispatch"; "issue"; "wake"; "retire"; "train" ]
let profile_counters () = Profile_counters.create ~stages:profile_stages

let prof_add st stage work =
  match st.prof with Some p -> Profile_counters.add p stage ~work | None -> ()

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Returns the instruction's own [dst] option (no fresh [Some] box). *)
let effective_dst (i : Instr.t) =
  match i.dst with Some d when not (Reg.is_zero d) -> i.dst | Some _ | None -> None

let rec reg_forwarded r (regs : Reg.t list) =
  match regs with [] -> false | r' :: rest -> Reg.equal r r' || reg_forwarded r rest

let rec reg_forwarded_by_any r (slaves : Distribution.slave list) =
  match slaves with
  | [] -> false
  | sl :: rest -> reg_forwarded r sl.Distribution.s_forward_srcs || reg_forwarded_by_any r rest

(* Write the local physical sources of [regs] (at most two) into the
   pooled copy's own source array: hardwired zeros and registers
   forwarded by one of [slaves] ([] keeps everything) are dropped. A
   top-level recursion over the memoized plan — the old [collect_srcs]
   built a fresh array (plus a [keep] closure on the Multi path) per
   copy. *)
let rec fill_srcs rf (c : copy) slaves regs n =
  match regs with
  | [] -> c.c_nsrcs <- n
  | r :: rest ->
    if (not (Reg.is_zero r)) && not (reg_forwarded_by_any r slaves) then begin
      c.c_srcs.(n) <- src_code (Regfile.bank_of_reg r) (Regfile.lookup rf r);
      fill_srcs rf c slaves rest (n + 1)
    end
    else fill_srcs rf c slaves rest n

(* Rename the destination into the copy's (reg, bank, new, prev) fields.
   Callers check freelist headroom first, so the packed rename cannot
   fail here. *)
let set_copy_dst (c : copy) rf dst =
  match dst with
  | None -> ()
  | Some d ->
    let packed = Regfile.rename_packed rf d in
    assert (packed >= 0);
    c.c_dst_reg <- d;
    c.c_dst_bank <- Regfile.bank_of_reg d;
    c.c_dst_new <- packed lsr 16;
    c.c_dst_prev <- packed land 0xffff

(* Fetch a recycled copy record and reinitialize every mutable field to
   dispatch state; role-specific fields are overwritten by the caller
   before the copy is enqueued. *)
let acquire_copy st (g : group) cluster role op issue_class =
  let c = Freelist.Slab.alloc st.copy_pool in
  c.c_seq <- g.g_seq;
  c.c_cluster <- cluster;
  c.c_role <- role;
  c.c_op <- op;
  c.c_issue_class <- issue_class;
  c.c_nsrcs <- 0;
  c.c_dst_new <- -1;
  c.c_forwards <- false;
  c.c_receives_result <- false;
  c.c_result_forward <- false;
  c.c_has_slave_operand <- false;
  c.c_num_operand_entries <- 0;
  c.c_state <- C_waiting;
  c.c_issue <- -1;
  c.c_finish <- max_int;
  c.c_wait_srcs <- 0;
  c.c_operand_live <- 0;
  c.c_result_entry <- -1;
  c.c_master_cluster <- cluster;
  c.c_group <- g;
  c

(* Scenario counter names, preallocated (indexed by Distribution.scenario,
   1-5; 0 is never produced). *)
let scenario_counters =
  [| "scenario_0"; "scenario_1"; "scenario_2"; "scenario_3"; "scenario_4"; "scenario_5" |]

let by_seq (a : copy) (b : copy) = compare a.c_seq b.c_seq

(* Append to the copy's per-queue ready list. The list is kept in seq
   order (the scan engine issues oldest-first within a queue); an
   out-of-order append just marks it for re-sorting at the next issue. *)
let ready_push st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  let q = queue_of_class c.c_issue_class st.cfg.queue_split in
  let rq = cl.ready_qs.(q) in
  let n = Vec.length rq in
  if n > 0 && (Vec.get rq (n - 1)).c_seq > c.c_seq then cl.ready_dirty.(q) <- true;
  Vec.push rq c

(* Wakeup-engine dispatch: index the copy under each not-yet-ready
   source. A source already written goes unrecorded; one with a known
   future ready cycle schedules the copy on the source wheel; a truly
   pending one parks the copy in the producer register's wait list (moved
   to the wheel when the producer issues and calls [set_dst_ready]). A
   copy with no outstanding sources goes straight to the ready list. *)
let rec register_srcs st cl (c : copy) i pending =
  if i >= c.c_nsrcs then pending
  else begin
    let code = c.c_srcs.(i) in
    let ready = Regfile.ready_at cl.rf (src_bank code) (src_phys code) in
    let pending =
      if ready = max_int then begin
        Vec.push cl.wait_regs.(code land 1).(code lsr 1) c;
        pending + 1
      end
      else if ready > st.cycle then begin
        Bucket_queue.add st.src_wheel ~key:ready c;
        pending + 1
      end
      else pending
    in
    register_srcs st cl c (i + 1) pending
  end

let register_copy st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  let pending = register_srcs st cl c 0 0 in
  c.c_wait_srcs <- pending;
  if pending = 0 then ready_push st c

let enqueue_copy st cl q (c : copy) =
  match st.engine with
  | `Scan -> Deque.push_back cl.dqs.(q) c
  | `Wakeup -> register_copy st c

let acquire_group st (f : fetched) scenario =
  let g = Freelist.Slab.alloc st.group_pool in
  g.g_seq <- f.f_idx;
  g.g_scenario <- scenario;
  g.g_master <- dummy_copy;
  g.g_nslaves <- 0;
  g.g_token <- f.f_token;
  g.g_mispred <- f.f_mispred;
  Deque.push_back st.rob g;
  g

(* Memoized [Distribution.plan]: one slot per (pc, preferred cluster),
   validated by physical identity of the interned static instruction the
   slot was planned for. A fresh (non-interned) instruction — only
   possible on hand-built traces that reuse a pc — recomputes without
   caching. *)
let plan_for st ~pc ~prefer instr =
  let key = (pc lsl 3) lor prefer in
  if key >= Array.length st.plan_memo then begin
    let cap = max (key + 1) (max 128 (2 * Array.length st.plan_memo)) in
    let memo = Array.make cap None in
    let instrs = Array.make cap st.plan_dummy in
    Array.blit st.plan_memo 0 memo 0 (Array.length st.plan_memo);
    Array.blit st.plan_instrs 0 instrs 0 (Array.length st.plan_instrs);
    st.plan_memo <- memo;
    st.plan_instrs <- instrs
  end;
  if st.plan_instrs.(key) == instr then
    match st.plan_memo.(key) with Some p -> p | None -> assert false
  else begin
    let p = Distribution.plan st.assignment ~prefer instr in
    st.plan_instrs.(key) <- instr;
    st.plan_memo.(key) <- Some p;
    p
  end

(* Queue and class per slave copy. A slave that forwards nothing must
   receive the result, so [dst_bank]'s filler value (passed when the
   instruction has no destination) is never consulted. *)
let slave_issue_class dst_bank (sl : Distribution.slave) =
  match sl.Distribution.s_forward_srcs with
  | r :: _ -> bank_of_op_for_slot (Regfile.bank_of_reg r)
  | [] -> bank_of_op_for_slot dst_bank

(* The Multi-path admission checks and attribute scans below are
   top-level recursions over the memoized plan's slave list: the old
   [List.for_all]/[List.exists] chains captured dispatch locals in a
   fresh closure per attempt. *)
let rec multi_room_ok st dst_bank (slaves : Distribution.slave list) =
  match slaves with
  | [] -> true
  | sl :: rest ->
    let scl = st.clusters.(sl.Distribution.s_cluster) in
    let sq = queue_of_class (slave_issue_class dst_bank sl) st.cfg.queue_split in
    scl.dq_waiting.(sq) < queue_capacity st.cfg.queue_split st.cfg.dq_entries sq
    && multi_room_ok st dst_bank rest

let rec multi_phys_ok st bank (slaves : Distribution.slave list) =
  match slaves with
  | [] -> true
  | sl :: rest ->
    ((not sl.Distribution.s_receives_result)
    || Regfile.free_count st.clusters.(sl.Distribution.s_cluster).rf bank > 0)
    && multi_phys_ok st bank rest

let rec any_slave_forwards (slaves : Distribution.slave list) =
  match slaves with
  | [] -> false
  | sl :: rest -> sl.Distribution.s_forward_srcs <> [] || any_slave_forwards rest

let rec any_slave_receives (slaves : Distribution.slave list) =
  match slaves with
  | [] -> false
  | sl :: rest -> sl.Distribution.s_receives_result || any_slave_receives rest

let rec dispatch_slaves st (g : group) (instr : Instr.t) dst dst_bank master scenario
    (slaves : Distribution.slave list) =
  match slaves with
  | [] -> ()
  | sl :: rest ->
    let scl = st.clusters.(sl.Distribution.s_cluster) in
    let cls = slave_issue_class dst_bank sl in
    let sq = queue_of_class cls st.cfg.queue_split in
    let sc = acquire_copy st g sl.Distribution.s_cluster Slave_copy instr.Instr.op cls in
    (* Forwarded sources look up the pre-rename map, like every other
       source. A steered plan can make one slave both forward a register
       and receive the result into it (impossible under static masters,
       where the source+destination cluster always wins the majority);
       renaming first would have the slave forward its own pending
       result — a dispatch-time deadlock cycle. *)
    fill_srcs scl.rf sc [] sl.Distribution.s_forward_srcs 0;
    if sl.Distribution.s_receives_result then set_copy_dst sc scl.rf dst;
    sc.c_forwards <- sl.Distribution.s_forward_srcs <> [];
    sc.c_receives_result <- sl.Distribution.s_receives_result;
    sc.c_num_operand_entries <- List.length sl.Distribution.s_forward_srcs;
    sc.c_master_cluster <- master;
    g.g_slaves.(g.g_nslaves) <- sc;
    g.g_nslaves <- g.g_nslaves + 1;
    enqueue_copy st scl sq sc;
    scl.dq_waiting.(sq) <- scl.dq_waiting.(sq) + 1;
    scl.cl_waiting <- scl.cl_waiting + 1;
    if st.observed then
      st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq;
                             cluster = sl.Distribution.s_cluster; role = Slave_copy;
                             scenario });
    dispatch_slaves st g instr dst dst_bank master scenario rest

(* Occupancy-based steering: the least-loaded cluster by the running
   [cl_waiting] totals, lowest index winning ties (strict [<], so two
   clusters reproduce the historical [<=] comparison exactly). A
   top-level recursion — a closure or ref pair here would put dispatch
   allocation back on the hot path. *)
let rec steer_argmin (clusters : cluster_state array) i n best best_w =
  if i >= n then best
  else begin
    let w = clusters.(i).cl_waiting in
    if w < best_w then steer_argmin clusters (i + 1) n i w
    else steer_argmin clusters (i + 1) n best best_w
  end

(* Memoized [Distribution.plan_steered], mirroring [plan_for] but keyed
   by the forced master instead of the tie-break preference. Only dynamic
   policies reach it, so one state never mixes the two memo families. *)
let plan_steered_for st ~pc ~master instr =
  let key = (pc lsl 3) lor master in
  if key >= Array.length st.splan_memo then begin
    let cap = max (key + 1) (max 128 (2 * Array.length st.splan_memo)) in
    let memo = Array.make cap None in
    let instrs = Array.make cap st.plan_dummy in
    Array.blit st.splan_memo 0 memo 0 (Array.length st.splan_memo);
    Array.blit st.splan_instrs 0 instrs 0 (Array.length st.splan_instrs);
    st.splan_memo <- memo;
    st.splan_instrs <- instrs
  end;
  if st.splan_instrs.(key) == instr then
    match st.splan_memo.(key) with Some p -> p | None -> assert false
  else begin
    let p = Distribution.plan_steered st.assignment ~master instr in
    st.splan_instrs.(key) <- instr;
    st.splan_memo.(key) <- Some p;
    p
  end

(* Dependence steering: the cluster owning the producer of the first
   not-yet-ready (or never-written) non-zero local source, in operand
   order. Global sources are readable everywhere and pin nothing; -1
   when every source is ready, global or zero. A top-level recursion for
   the same reason as [steer_argmin]. *)
let rec steer_dependence st (srcs : Reg.t list) =
  match srcs with
  | [] -> -1
  | r :: rest ->
    if Reg.is_zero r then steer_dependence st rest
    else begin
      match Assignment.placement st.assignment r with
      | Assignment.Global -> steer_dependence st rest
      | Assignment.Local c ->
        let rf = st.clusters.(c).rf in
        let bank = Regfile.bank_of_reg r in
        if Regfile.ready_at rf bank (Regfile.lookup rf r) > st.cycle then c
        else steer_dependence st rest
    end

(* The dynamic policy's cluster choice for this dispatch attempt; also
   records the decision's classification in [steer_kind] so a successful
   dispatch can promote it to the right counter. Never called under
   [Static] or with one cluster. *)
let steer_cluster st policy (instr : Instr.t) ~pc n =
  let fallback () =
    st.steer_kind <- 1;
    steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
  in
  st.steer_kind <- 0;
  match (policy : Steering.policy) with
  | Steering.Static -> assert false
  | Steering.Modulo -> st.steer_rr
  | Steering.Load -> steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
  | Steering.Dependence ->
    let c = steer_dependence st instr.Instr.srcs in
    if c >= 0 then c else fallback ()
  | Steering.Ineffectual ->
    if Steering.Ineff_table.predict_dead st.ineff ~pc then begin
      st.steer_kind <- 2;
      n - 1
    end
    else begin
      let c = steer_dependence st instr.Instr.srcs in
      if c >= 0 then c else fallback ()
    end

let try_dispatch_one st (f : fetched) =
  let cfg = st.cfg in
  let instr = Flat_trace.instr st.trace f.f_idx in
  let pc = Flat_trace.pc st.trace f.f_idx in
  let plan =
    if st.steer_dynamic then
      let master = steer_cluster st cfg.steering instr ~pc (Array.length st.clusters) in
      plan_steered_for st ~pc ~master instr
    else begin
      let prefer =
        let n = Array.length st.clusters in
        if n = 1 then 0 else steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting
      in
      plan_for st ~pc ~prefer instr
    end
  in
  let scenario = Distribution.scenario plan in
  if Deque.length st.rob >= rob_capacity then begin
    incr st.hot.k_stall_rob_full;
    false
  end
  else
    match plan with
    | Distribution.Single { cluster } ->
      let cl = st.clusters.(cluster) in
      let dst = effective_dst instr in
      let q = queue_of_class instr.Instr.op cfg.queue_split in
      if cl.dq_waiting.(q) >= queue_capacity cfg.queue_split cfg.dq_entries q then begin
        incr st.hot.k_stall_dq_full;
        false
      end
      else if
        match dst with
        | Some d -> Regfile.free_count cl.rf (Regfile.bank_of_reg d) = 0
        | None -> false
      then begin
        incr st.hot.k_stall_phys;
        false
      end
      else begin
        let g = acquire_group st f scenario in
        let c = acquire_copy st g cluster Single_copy instr.Instr.op instr.Instr.op in
        (* Sources look up the pre-rename map, so fill before renaming
           (the destination may also be a source). *)
        fill_srcs cl.rf c [] instr.Instr.srcs 0;
        set_copy_dst c cl.rf dst;
        g.g_master <- c;
        enqueue_copy st cl q c;
        cl.dq_waiting.(q) <- cl.dq_waiting.(q) + 1;
        cl.cl_waiting <- cl.cl_waiting + 1;
        incr st.hot.k_single_distributed;
        incr st.hot.k_scenarios.(scenario);
        if st.observed then
          st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq; cluster; role = Single_copy;
                                 scenario });
        true
      end
    | Distribution.Multi { master; slaves; master_writes_reg } ->
      let mcl = st.clusters.(master) in
      let dst = effective_dst instr in
      let dst_bank =
        match dst with Some d -> Regfile.bank_of_reg d | None -> Regfile.B_int
      in
      let mq = queue_of_class instr.Instr.op cfg.queue_split in
      let room_ok =
        mcl.dq_waiting.(mq) < queue_capacity cfg.queue_split cfg.dq_entries mq
        && multi_room_ok st dst_bank slaves
      in
      let phys_ok =
        match dst with
        | None -> true
        | Some _ ->
          ((not master_writes_reg) || Regfile.free_count mcl.rf dst_bank > 0)
          && multi_phys_ok st dst_bank slaves
      in
      if not room_ok then begin
        incr st.hot.k_stall_dq_full;
        false
      end
      else if not phys_ok then begin
        incr st.hot.k_stall_phys;
        false
      end
      else begin
        let g = acquire_group st f scenario in
        let mc = acquire_copy st g master Master_copy instr.Instr.op instr.Instr.op in
        fill_srcs mcl.rf mc slaves instr.Instr.srcs 0;
        if master_writes_reg then set_copy_dst mc mcl.rf dst;
        mc.c_has_slave_operand <- any_slave_forwards slaves;
        mc.c_result_forward <- any_slave_receives slaves;
        g.g_master <- mc;
        enqueue_copy st mcl mq mc;
        mcl.dq_waiting.(mq) <- mcl.dq_waiting.(mq) + 1;
        mcl.cl_waiting <- mcl.cl_waiting + 1;
        if st.observed then
          st.emit (Ev_dispatch { cycle = st.cycle; seq = g.g_seq; cluster = master;
                                 role = Master_copy; scenario });
        dispatch_slaves st g instr dst dst_bank master scenario slaves;
        incr st.hot.k_dual_distributed;
        incr st.hot.k_scenarios.(scenario);
        true
      end

(* Bookkeeping for a successful dynamically steered dispatch: promote
   the decision classification recorded by [steer_cluster] and advance
   the round-robin counter (per dispatched instruction, so a stalled
   attempt retries the same cluster). *)
let note_steered_dispatch st =
  (match st.steer_kind with
  | 0 -> st.steer_hits <- st.steer_hits + 1
  | 1 -> st.steer_fallbacks <- st.steer_fallbacks + 1
  | _ -> st.steer_dead_exiles <- st.steer_dead_exiles + 1);
  if st.cfg.steering = Steering.Modulo then
    st.steer_rr <- (st.steer_rr + 1) mod st.n_clust

let dispatch_phase st =
  let n = ref 0 in
  let blocked = ref false in
  while (not !blocked) && !n < st.cfg.dispatch_width do
    match Fixed_queue.peek st.fetch_buffer with
    | None -> blocked := true
    | Some f ->
      if try_dispatch_one st f then begin
        if st.steer_dynamic then note_steered_dispatch st;
        ignore (Fixed_queue.pop st.fetch_buffer);
        incr n
      end
      else blocked := true
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

(* Checked once per issue candidate per cycle: plain recursion instead of
   [Array.iter]/[List.for_all] closures keeps the scan allocation-free. *)
(* The per-candidate readiness predicates below are written as top-level
   recursions rather than [Array.iter]/[List.for_all] closures: without
   flambda each closure capturing locals costs a minor-heap block per
   candidate examined, which dominated the issue-phase allocation. *)
let rec srcs_ready_from st cl (c : copy) i n =
  i >= n
  ||
  let code = c.c_srcs.(i) in
  Regfile.ready_at cl.rf (src_bank code) (src_phys code) <= st.cycle
  && srcs_ready_from st cl c (i + 1) n

let srcs_ready st (c : copy) =
  srcs_ready_from st st.clusters.(c.c_cluster) c 0 c.c_nsrcs

(* Interconnect hop latency from cluster [src] to cluster [dst]; the
   table is precomputed at [init_state], so the issue-path checks below
   pay one array read. Point-to-point at any cluster count (and every
   topology at two clusters except the crossbar) reads 1 — the transfer
   cost the dual machine used to hard-code. *)
let hop st ~src ~dst = st.hops.((src * st.n_clust) + dst)

let rec slaves_can_feed st (g : group) i =
  i >= g.g_nslaves
  ||
  let s = g.g_slaves.(i) in
  ((not s.c_forwards)
  || (s.c_state <> C_waiting
     && st.cycle >= s.c_issue + hop st ~src:s.c_cluster ~dst:s.c_master_cluster))
  && slaves_can_feed st g (i + 1)

let rec result_slots_free st (g : group) i =
  i >= g.g_nslaves
  ||
  let s = g.g_slaves.(i) in
  ((not s.c_receives_result)
  || Transfer_buffer.can_alloc st.clusters.(s.c_cluster).result_buf ~cycle:st.cycle)
  && result_slots_free st g (i + 1)

(* Anti-livelock freeze: a head-starvation replay recovers from a
   transfer-buffer deadlock by squashing and re-executing, but the replay
   is deterministic — if the head instruction starves again, re-execution
   would recreate the identical wedge forever (younger slaves refill the
   buffer before the head's slave reaches it, e.g. from a
   scanned-earlier per-class queue). Once the same head starves through a
   replay, groups younger than it are barred from claiming new
   transfer-buffer entries until it drains. *)
let buffer_frozen st (c : copy) =
  st.starving_seq >= 0
  && c.c_group.g_seq > st.starving_seq
  &&
  match c.c_role with
  | Slave_copy -> c.c_forwards
  | Master_copy -> c.c_result_forward
  | Single_copy -> false

(* Readiness beyond source operands and issue slots. *)
let structurally_ready st (c : copy) =
  (not (buffer_frozen st c))
  &&
  match c.c_role with
  | Single_copy -> true
  | Master_copy ->
    ((not c.c_has_slave_operand) || slaves_can_feed st c.c_group 0)
    && ((not c.c_result_forward) || result_slots_free st c.c_group 0)
  | Slave_copy ->
    if c.c_forwards then
      let master_cl = st.clusters.(c.c_master_cluster) in
      Transfer_buffer.available master_cl.operand_buf ~cycle:st.cycle
      >= c.c_num_operand_entries
    else begin
      (* Pure result-receiving slave: wait for the master's result to
         cross the interconnect. At one hop this is the paper's rule —
         issuable at [master_finish - 1], but never before the cycle
         after the master issues. *)
      let m = c.c_group.g_master in
      let h = hop st ~src:m.c_cluster ~dst:c.c_cluster in
      m.c_state = C_issued && st.cycle >= max (m.c_issue + h) (m.c_finish - 2 + h)
    end

let finish_of_issue st (c : copy) =
  let issue = st.cycle in
  match c.c_op with
  | Op_class.Load ->
    let addr = Flat_trace.mem_addr st.trace c.c_group.g_seq in
    let ready = Cache.access st.dcache ~cycle:(issue + 1) ~addr ~write:false in
    max (issue + 2) (ready + 1)
  | Op_class.Store ->
    let addr = Flat_trace.mem_addr st.trace c.c_group.g_seq in
    ignore (Cache.access st.dcache ~cycle:(issue + 1) ~addr ~write:true);
    issue + 1
  | Op_class.Int_multiply | Op_class.Int_other | Op_class.Fp_divide _ | Op_class.Fp_other
  | Op_class.Control -> issue + Op_class.latency c.c_op

let set_dst_ready st (c : copy) cycle =
  if c.c_dst_new >= 0 then begin
    let cl = st.clusters.(c.c_cluster) in
    Regfile.set_ready cl.rf c.c_dst_bank c.c_dst_new cycle;
    match st.engine with
    | `Scan -> ()
    | `Wakeup ->
      (* Move every copy waiting on this register onto the source wheel
         at its ready cycle. Stale (squashed) waiters are dropped here;
         live waiters of a squashed producer cannot exist, because a
         squash always covers all younger instructions. *)
      let wv = cl.wait_regs.(bank_bit c.c_dst_bank).(c.c_dst_new) in
      let nw = Vec.length wv in
      if nw > 0 then begin
        for i = 0 to nw - 1 do
          let w = Vec.get wv i in
          if w.c_state = C_waiting then Bucket_queue.add st.src_wheel ~key:cycle w
        done;
        Vec.clear wv
      end
  end

let note_finish st f = if f < max_int && f > st.max_finish then st.max_finish <- f

(* Consume the forwarded operands: free every slave's operand entries
   (they live in [cl], the master's cluster's, buffer). Entries are
   released newest-first, matching the order of the historical
   prepend-built entry list. *)
let rec consume_slave_operands st cl (g : group) i =
  if i < g.g_nslaves then begin
    let s = g.g_slaves.(i) in
    (if s.c_operand_live > 0 then begin
       for j = s.c_operand_live - 1 downto 0 do
         Transfer_buffer.free cl.operand_buf ~cycle:st.cycle s.c_operand_ents.(j)
       done;
       s.c_operand_live <- 0
     end);
    consume_slave_operands st cl g (i + 1)
  end

(* Reserve a result-transfer entry in every receiving slave's cluster. *)
let rec forward_results st (c : copy) (g : group) i =
  if i < g.g_nslaves then begin
    let s = g.g_slaves.(i) in
    (if s.c_receives_result then begin
       let other = st.clusters.(s.c_cluster) in
       let h = hop st ~src:c.c_cluster ~dst:s.c_cluster in
       s.c_result_entry <- Transfer_buffer.alloc other.result_buf ~cycle:st.cycle;
       if st.observed then
         st.emit
           (Ev_result_forward
              { cycle = c.c_finish + h - 1; seq = c.c_seq; from_cluster = c.c_cluster;
                to_cluster = s.c_cluster });
       (* A suspended scenario-5 slave wakes when the result reaches its
          cluster: schedule it on the wake wheel now that the wake cycle
          is known. *)
       match st.engine with
       | `Wakeup when s.c_state = C_suspended ->
         Bucket_queue.add st.wake_wheel ~key:(max (st.cycle + h) (c.c_finish - 2 + h)) s
       | `Wakeup | `Scan -> ()
     end);
    forward_results st c g (i + 1)
  end

let issue_executing_copy st (c : copy) =
  (* Single copy or master copy: runs the real operation. *)
  let cl = st.clusters.(c.c_cluster) in
  Fu.issue cl.fu ~cycle:st.cycle c.c_issue_class;
  c.c_state <- C_issued;
  c.c_issue <- st.cycle;
  c.c_finish <- finish_of_issue st c;
  note_finish st c.c_finish;
  set_dst_ready st c c.c_finish;
  if st.observed then begin
    st.emit
      (Ev_issue { cycle = st.cycle; seq = c.c_seq; cluster = c.c_cluster; role = c.c_role });
    st.emit
      (Ev_writeback { cycle = c.c_finish; seq = c.c_seq; cluster = c.c_cluster; role = c.c_role })
  end;
  if c.c_has_slave_operand then consume_slave_operands st cl c.c_group 0;
  if c.c_result_forward then forward_results st c c.c_group 0;
  (* Branch bookkeeping: redirect and deferred predictor training. *)
  match c.c_op with
  | Op_class.Control ->
    let g = c.c_group in
    (match g.g_token with
    | Some tok ->
      let taken = Flat_trace.branch_taken st.trace g.g_seq in
      Deque.push_back st.pending_train (c.c_finish, c.c_seq, tok, taken)
    | None -> ());
    if g.g_mispred then begin
      st.redirect_pending <- false;
      st.fetch_resume <- max st.fetch_resume (c.c_finish + st.cfg.redirect_penalty);
      incr st.hot.k_redirects
    end
  | Op_class.Int_multiply | Op_class.Int_other | Op_class.Fp_divide _ | Op_class.Fp_other
  | Op_class.Load | Op_class.Store -> ()

let issue_slave_copy st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  Fu.issue cl.fu ~cycle:st.cycle c.c_issue_class;
  c.c_issue <- st.cycle;
  if st.observed then
    st.emit
      (Ev_issue { cycle = st.cycle; seq = c.c_seq; cluster = c.c_cluster; role = Slave_copy });
  incr st.hot.k_slave_issues;
  if c.c_forwards then begin
    (* Write the operand(s) into the master cluster's operand buffer. The
       historical prepend-built list held the entries newest-first; the
       scratch array keeps allocation order, so index [n-1] is the newest
       and frees walk the array backwards. *)
    let master_cl = st.clusters.(c.c_master_cluster) in
    let h = hop st ~src:c.c_cluster ~dst:c.c_master_cluster in
    let n = c.c_num_operand_entries in
    for k = 0 to n - 1 do
      c.c_operand_ents.(k) <- Transfer_buffer.alloc master_cl.operand_buf ~cycle:st.cycle
    done;
    c.c_operand_live <- n;
    if st.observed then
      st.emit
        (Ev_operand_forward
           { cycle = st.cycle + h; seq = c.c_seq; from_cluster = c.c_cluster;
             to_cluster = c.c_master_cluster });
    if c.c_receives_result then begin
      (* Scenario 5: wait (without re-issuing) for the master's result. *)
      c.c_state <- C_suspended;
      if st.observed then
        st.emit (Ev_suspend { cycle = st.cycle + h; seq = c.c_seq; cluster = c.c_cluster })
    end
    else begin
      c.c_state <- C_issued;
      c.c_finish <- st.cycle + h;
      note_finish st c.c_finish
    end
  end
  else begin
    (* Scenarios 3/4: read the forwarded result, write the register. *)
    assert (c.c_result_entry >= 0);
    Transfer_buffer.free cl.result_buf ~cycle:st.cycle c.c_result_entry;
    c.c_result_entry <- -1;
    c.c_state <- C_issued;
    c.c_finish <- st.cycle + 1;
    note_finish st c.c_finish;
    set_dst_ready st c c.c_finish;
    if st.observed then
      st.emit
        (Ev_writeback { cycle = c.c_finish; seq = c.c_seq; cluster = c.c_cluster;
                        role = Slave_copy })
  end

(* Shared per-candidate issue step: returns true if the copy issued. *)
let try_issue st cl qi (c : copy) =
  if
    c.c_state = C_waiting
    && Fu.can_issue cl.fu ~cycle:st.cycle c.c_issue_class
    && srcs_ready st c
    && structurally_ready st c
  then begin
    (match c.c_role with
    | Single_copy | Master_copy -> issue_executing_copy st c
    | Slave_copy -> issue_slave_copy st c);
    (* The paper's issue-disorder metric: issues younger than an
       already-issued instruction. *)
    if c.c_seq < st.max_issued_seq then begin
      incr st.hot.k_ooo_issues;
      st.hot.k_ooo_issue_distance := !(st.hot.k_ooo_issue_distance) + (st.max_issued_seq - c.c_seq)
    end
    else st.max_issued_seq <- c.c_seq;
    cl.dq_waiting.(qi) <- cl.dq_waiting.(qi) - 1;
    cl.cl_waiting <- cl.cl_waiting - 1;
    true
  end
  else false

(* The per-cycle issue walk must not build closures or refs (OCaml
   without flambda heap-allocates both), so the loops below are top-level
   recursions threading accumulators as arguments; [st.scratch_work]
   accumulates the examined-entries profile count for the cycle. The
   issued and clusters-active totals travel packed into one immediate int
   ([issued lsl 4 lor active]; validate_config caps clusters at 8). *)

(* Compact one dispatch queue: drop copies that left it. *)
let rec compact_dq dq n =
  if n > 0 then begin
    (match Deque.pop_front dq with
    | Some c -> if c.c_state = C_waiting then Deque.push_back dq c
    | None -> assert false);
    compact_dq dq (n - 1)
  end

(* Greedy oldest-first scan under the shared per-cycle budget. *)
let rec scan_dq st cl qi dq i n issued =
  if i >= n || Fu.issued_this_cycle cl.fu >= st.cfg.issue_limits.Issue_rules.total then
    issued
  else begin
    st.scratch_work <- st.scratch_work + 1;
    let issued = if try_issue st cl qi (Deque.get dq i) then issued + 1 else issued in
    scan_dq st cl qi dq (i + 1) n issued
  end

let rec scan_cluster_queues st cl qi issued =
  if qi >= Array.length cl.dqs then issued
  else begin
    let dq = cl.dqs.(qi) in
    let n = Deque.length dq in
    st.scratch_work <- st.scratch_work + n;
    compact_dq dq n;
    let issued = scan_dq st cl qi dq 0 (Deque.length dq) issued in
    scan_cluster_queues st cl (qi + 1) issued
  end

let rec issue_scan_clusters st ci issued active =
  if ci >= Array.length st.clusters then (issued lsl 4) lor active
  else begin
    let cl = st.clusters.(ci) in
    let before = Fu.total_issued cl.fu in
    Fu.new_cycle cl.fu;
    let issued = scan_cluster_queues st cl 0 issued in
    let active = if Fu.total_issued cl.fu > before then active + 1 else active in
    issue_scan_clusters st (ci + 1) issued active
  end

(* Reference engine: rescan every dispatch-queue entry every cycle. *)
let issue_phase_scan st =
  st.scratch_work <- 0;
  let packed = issue_scan_clusters st 0 0 0 in
  let issued = packed lsr 4 in
  prof_add st stage_issue st.scratch_work;
  if issued > 0 then incr st.hot.k_issue_active;
  if packed land 0xf >= 2 then incr st.hot.k_both_active;
  issued

(* Dependence-driven engine: only copies whose sources are all ready sit
   on the per-queue ready lists; the scan below touches just those (the
   structurally-blocked residue plus this cycle's newly-ready copies),
   not the whole queue. Issue order — and therefore every downstream
   statistic — is identical to the scan engine because the lists are kept
   in seq order and the same budget and readiness checks apply. *)
let copy_is_waiting c = c.c_state = C_waiting

(* A source event due this cycle makes its copy ready; installed once as
   [st.src_drain] so the per-cycle drain passes a preallocated callback. *)
let src_wakeup st c =
  if c.c_state = C_waiting then begin
    c.c_wait_srcs <- c.c_wait_srcs - 1;
    if c.c_wait_srcs = 0 then ready_push st c
  end

let rec issue_ready_q st cl qi rq i n issued =
  if i >= n || Fu.issued_this_cycle cl.fu >= st.cfg.issue_limits.Issue_rules.total then
    issued
  else begin
    st.scratch_work <- st.scratch_work + 1;
    let issued = if try_issue st cl qi (Vec.get rq i) then issued + 1 else issued in
    issue_ready_q st cl qi rq (i + 1) n issued
  end

let rec issue_wakeup_queues st cl qi issued =
  if qi >= Array.length cl.ready_qs then issued
  else begin
    let rq = cl.ready_qs.(qi) in
    (* Drop copies that issued or were squashed, then restore seq order
       if out-of-order wakeups appended behind younger copies. *)
    st.scratch_work <- st.scratch_work + Vec.length rq;
    Vec.filter_in_place copy_is_waiting rq;
    if cl.ready_dirty.(qi) then begin
      Vec.sort ~cmp:by_seq rq;
      cl.ready_dirty.(qi) <- false
    end;
    let issued = issue_ready_q st cl qi rq 0 (Vec.length rq) issued in
    issue_wakeup_queues st cl (qi + 1) issued
  end

let rec issue_wakeup_clusters st ci issued active =
  if ci >= Array.length st.clusters then (issued lsl 4) lor active
  else begin
    let cl = st.clusters.(ci) in
    let before = Fu.total_issued cl.fu in
    Fu.new_cycle cl.fu;
    let issued = issue_wakeup_queues st cl 0 issued in
    let active = if Fu.total_issued cl.fu > before then active + 1 else active in
    issue_wakeup_clusters st (ci + 1) issued active
  end

let issue_phase_wakeup st =
  st.scratch_work <- 0;
  Bucket_queue.drain_upto st.src_wheel ~key:st.cycle st.src_drain;
  let packed = issue_wakeup_clusters st 0 0 0 in
  let issued = packed lsr 4 in
  prof_add st stage_issue st.scratch_work;
  if issued > 0 then incr st.hot.k_issue_active;
  if packed land 0xf >= 2 then incr st.hot.k_both_active;
  issued

let issue_phase st =
  match st.engine with `Scan -> issue_phase_scan st | `Wakeup -> issue_phase_wakeup st

(* Scenario-5 slaves wake when the master's result reaches their cluster. *)
let wake_slave st (s : copy) =
  let cl = st.clusters.(s.c_cluster) in
  Transfer_buffer.free cl.result_buf ~cycle:st.cycle s.c_result_entry;
  s.c_result_entry <- -1;
  s.c_state <- C_issued;
  s.c_finish <- st.cycle + 1;
  note_finish st s.c_finish;
  set_dst_ready st s s.c_finish;
  if st.observed then begin
    st.emit (Ev_wakeup { cycle = st.cycle; seq = s.c_seq; cluster = s.c_cluster });
    st.emit
      (Ev_writeback { cycle = s.c_finish; seq = s.c_seq; cluster = s.c_cluster;
                      role = Slave_copy })
  end

(* Reference engine: rescan the whole ROB for suspended slaves. *)
let wake_phase_scan st =
  let woke = ref 0 in
  let seen = ref 0 in
  Deque.iter
    (fun g ->
      incr seen;
      let m = g.g_master in
      for i = 0 to g.g_nslaves - 1 do
        let s = g.g_slaves.(i) in
        incr seen;
        if s.c_state = C_suspended && m.c_state = C_issued then begin
          let h = hop st ~src:m.c_cluster ~dst:s.c_cluster in
          let wake_at = max (m.c_issue + h) (m.c_finish - 2 + h) in
          if st.cycle >= wake_at && s.c_result_entry >= 0 then begin
            wake_slave st s;
            incr woke
          end
        end
      done)
    st.rob;
  prof_add st stage_wake !seen;
  !woke

(* Drain callback for the wake wheel, installed once as [st.wake_drain]. *)
let wake_collect st s =
  st.scratch_work <- st.scratch_work + 1;
  if s.c_state = C_suspended && s.c_result_entry >= 0 then Vec.push st.wake_scratch s

let rec wake_scratch_from st i =
  if i < Vec.length st.wake_scratch then begin
    wake_slave st (Vec.get st.wake_scratch i);
    wake_scratch_from st (i + 1)
  end

(* Event-driven engine: slaves were scheduled on the wake wheel at master
   issue (the wake cycle is known then); drain the due bucket and wake in
   seq order, matching the scan engine's ROB-order walk. Squashed slaves
   are filtered by state. *)
let wake_phase_wakeup st =
  st.scratch_work <- 0;
  Vec.clear st.wake_scratch;
  Bucket_queue.drain_upto st.wake_wheel ~key:st.cycle st.wake_drain;
  if Vec.length st.wake_scratch > 1 then Vec.sort ~cmp:by_seq st.wake_scratch;
  wake_scratch_from st 0;
  prof_add st stage_wake st.scratch_work;
  Vec.length st.wake_scratch

let wake_phase st =
  match st.engine with `Scan -> wake_phase_scan st | `Wakeup -> wake_phase_wakeup st

(* ------------------------------------------------------------------ *)
(* Retire                                                              *)
(* ------------------------------------------------------------------ *)

let copy_done st c = c.c_state = C_issued && c.c_finish <= st.cycle

let rec slaves_done st g i =
  i >= g.g_nslaves || (copy_done st g.g_slaves.(i) && slaves_done st g (i + 1))

let group_done st g =
  g.g_master != dummy_copy && copy_done st g.g_master && slaves_done st g 0

let retire_copy st (c : copy) =
  if c.c_dst_new >= 0 then
    Regfile.release st.clusters.(c.c_cluster).rf c.c_dst_bank c.c_dst_prev

(* Retiring a group hands its records back to the pools. This is safe
   mid-flight: the issue phase compacts the dispatch/ready queues (on
   [c_state]) before the next dispatch can recycle a record, the wheels
   were drained for every cycle up to the finish times already reached,
   and wait lists are cleared when the producer issues — so no stale
   reference to a retired record is ever dereferenced. *)
let retire_group st g =
  retire_copy st g.g_master;
  Freelist.Slab.free st.copy_pool g.g_master;
  for i = 0 to g.g_nslaves - 1 do
    let s = g.g_slaves.(i) in
    retire_copy st s;
    Freelist.Slab.free st.copy_pool s;
    g.g_slaves.(i) <- dummy_copy
  done;
  g.g_master <- dummy_copy;
  g.g_nslaves <- 0;
  Freelist.Slab.free st.group_pool g

(* Ineffectuality training ([Steering.Ineffectual] only), performed at
   retire because groups leave the ROB in program order on both engines:
   mark every architectural source register as read, then — when the
   instruction overwrites a register — the previous writer's verdict is
   in: its result was dead iff nothing read the register in between.
   Sources are marked first so an instruction that reads and rewrites
   the same register vindicates the previous writer. *)
let rec mark_arch_reads st (srcs : Reg.t list) =
  match srcs with
  | [] -> ()
  | r :: rest ->
    if not (Reg.is_zero r) then st.arch_read.(Reg.flat_index r) <- true;
    mark_arch_reads st rest

let train_ineffectuality st seq =
  let instr = Flat_trace.instr st.trace seq in
  mark_arch_reads st instr.Instr.srcs;
  match instr.Instr.dst with
  | Some d when not (Reg.is_zero d) ->
    let i = Reg.flat_index d in
    let prev = st.arch_last_pc.(i) in
    if prev >= 0 then
      Steering.Ineff_table.train st.ineff ~pc:prev ~dead:(not st.arch_read.(i));
    st.arch_last_pc.(i) <- Flat_trace.pc st.trace seq;
    st.arch_read.(i) <- false
  | Some _ | None -> ()

let retire_phase st =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < st.cfg.retire_width do
    match Deque.peek_front st.rob with
    | Some g when group_done st g ->
      ignore (Deque.pop_front st.rob);
      incr st.hot.k_retired;
      if st.observed then st.emit (Ev_retire { cycle = st.cycle; seq = g.g_seq });
      if g.g_seq = st.starving_seq then st.starving_seq <- -1;
      if st.steer_train then train_ineffectuality st g.g_seq;
      retire_group st g;
      incr n
    | Some _ | None -> continue_ := false
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

let fetch_phase st =
  if st.redirect_pending || st.cycle < st.fetch_resume then begin
    if Deque.length st.rob > 0 || st.trace_idx < Flat_trace.length st.trace then
      incr st.hot.k_fetch_stall;
    0
  end
  else begin
    let fetched = ref 0 in
    let blocked = ref false in
    while
      (not !blocked)
      && !fetched < st.cfg.fetch_width
      && (not (Fixed_queue.is_full st.fetch_buffer))
      && st.trace_idx < Flat_trace.length st.trace
    do
      let idx = st.trace_idx in
      let pc = Flat_trace.pc st.trace idx in
      let addr = pc * 4 in
      let line = addr / st.cfg.icache.Cache.line_bytes in
      let icache_ok =
        if line = st.last_fetch_line then true
        else begin
          let ready = Cache.access st.icache ~cycle:st.cycle ~addr ~write:false in
          st.last_fetch_line <- line;
          if ready > st.cycle then begin
            st.fetch_resume <- ready;
            incr st.hot.k_icache_fetch_misses;
            false
          end
          else true
        end
      in
      if not icache_ok then blocked := true
      else begin
        let token, mispred =
          if Flat_trace.is_cond_branch st.trace idx then begin
            let taken = Flat_trace.branch_taken st.trace idx in
            let pred, tok = Mcfarling.predict st.predictor ~pc in
            Mcfarling.note_outcome st.predictor ~taken;
            (Some tok, pred <> taken)
          end
          else (None, false)
        in
        Fixed_queue.push st.fetch_buffer { f_idx = idx; f_token = token; f_mispred = mispred };
        if st.observed then st.emit (Ev_fetch { cycle = st.cycle; seq = idx });
        st.trace_idx <- st.trace_idx + 1;
        incr fetched;
        if mispred then begin
          st.redirect_pending <- true;
          incr st.hot.k_mispredicted_fetches;
          blocked := true
        end
      end
    done;
    !fetched
  end

(* ------------------------------------------------------------------ *)
(* Replay (squash)                                                     *)
(* ------------------------------------------------------------------ *)

(* Is this waiting copy blocked purely by transfer-buffer unavailability? *)
let blocked_on_buffer st (c : copy) =
  c.c_state = C_waiting
  && srcs_ready st c
  &&
  match c.c_role with
  | Single_copy -> false
  | Master_copy ->
    ((not c.c_has_slave_operand) || slaves_can_feed st c.c_group 0)
    && c.c_result_forward
    && not (result_slots_free st c.c_group 0)
  | Slave_copy ->
    c.c_forwards
    && Transfer_buffer.available st.clusters.(c.c_master_cluster).operand_buf ~cycle:st.cycle
       < c.c_num_operand_entries

let rec find_blocked_slave st (g : group) i =
  i < g.g_nslaves && (blocked_on_buffer st g.g_slaves.(i) || find_blocked_slave st g (i + 1))

let group_blocked_on_buffer st g =
  (g.g_master != dummy_copy && blocked_on_buffer st g.g_master)
  || find_blocked_slave st g 0

let rec find_victim_from st n i =
  if i >= n then None
  else
    match Deque.get st.rob i with
    | g when group_blocked_on_buffer st g -> Some g
    | _ -> find_victim_from st n (i + 1)

let find_replay_victim st =
  match find_victim_from st (Deque.length st.rob) 0 with
  | Some _ as v -> v
  | None -> (
    (* Fall back to the oldest group that is not finished. *)
    match Deque.peek_front st.rob with Some g when not (group_done st g) -> Some g | _ -> None)

(* Remove a squashed waiter from the wait lists of its source registers.
   Required once records are pooled: the producer was squashed with it and
   will never issue, so nothing else would ever clear the reference, and a
   recycled record must not be reachable from a stale list. (Rare path —
   the closure below is the only allocation on a squash.) *)
let purge_wait_regs st (c : copy) =
  let cl = st.clusters.(c.c_cluster) in
  for i = 0 to c.c_nsrcs - 1 do
    let code = c.c_srcs.(i) in
    let wv = cl.wait_regs.(code land 1).(code lsr 1) in
    if Vec.length wv > 0 then Vec.filter_in_place (fun w -> w != c) wv
  done

let squash_copy st (c : copy) =
  (* Return transfer-buffer entries: forwarded operands live in the master
     cluster's operand buffer; a reserved result entry lives in this
     (receiving slave's) cluster's result buffer. *)
  (if c.c_operand_live > 0 then begin
     let master_cl = st.clusters.(c.c_master_cluster) in
     for j = c.c_operand_live - 1 downto 0 do
       Transfer_buffer.free master_cl.operand_buf ~cycle:st.cycle c.c_operand_ents.(j)
     done;
     c.c_operand_live <- 0
   end);
  if c.c_result_entry >= 0 then begin
    Transfer_buffer.free st.clusters.(c.c_cluster).result_buf ~cycle:st.cycle c.c_result_entry;
    c.c_result_entry <- -1
  end;
  (* Undo renaming (reverse dispatch order is guaranteed by the caller). *)
  if c.c_dst_new >= 0 then begin
    Regfile.undo_rename st.clusters.(c.c_cluster).rf c.c_dst_reg ~new_phys:c.c_dst_new
      ~prev_phys:c.c_dst_prev;
    c.c_dst_new <- -1
  end;
  (match c.c_op with
  | Op_class.Fp_divide _ when c.c_state = C_issued && c.c_finish > st.cycle ->
    Fu.clear_divider st.clusters.(c.c_cluster).fu
  | _ -> ());
  if c.c_state = C_waiting then begin
    let cl = st.clusters.(c.c_cluster) in
    let q = queue_of_class c.c_issue_class st.cfg.queue_split in
    cl.dq_waiting.(q) <- cl.dq_waiting.(q) - 1;
    cl.cl_waiting <- cl.cl_waiting - 1;
    match st.engine with
    | `Wakeup when c.c_wait_srcs > 0 -> purge_wait_regs st c
    | `Wakeup | `Scan -> ()
  end;
  (* Squashed copies may still be referenced from dispatch/ready queues
     and the wheels; every consumer filters on [c_state], so flipping the
     state hides the record. It cannot be recycled until those stale
     references have drained — park it in limbo; [replay] sets the flush
     watermark past the last possible stale wheel key. *)
  c.c_state <- C_squashed;
  Vec.push st.limbo c;
  incr st.hot.k_squashed_copies

let rec squash_slaves_rev st (g : group) i =
  if i >= 0 then begin
    squash_copy st g.g_slaves.(i);
    g.g_slaves.(i) <- dummy_copy;
    squash_slaves_rev st g (i - 1)
  end

let replay st =
  match find_replay_victim st with
  | None -> ()
  | Some victim ->
    let vseq = victim.g_seq in
    if st.observed then st.emit (Ev_replay { cycle = st.cycle; seq = vseq });
    Stats.incr st.ctrs "replays";
    (* A replay that squashes the same victim with no instruction retired
       since the previous replay changed nothing: deterministic
       re-execution will recreate the identical wedge. Escalate to the
       younger-group buffer freeze (see [buffer_frozen]). *)
    if vseq = st.last_replay_seq && !(st.hot.k_retired) = st.last_replay_retired
    then begin
      st.starving_seq <- vseq;
      Stats.incr st.ctrs "starvation_freezes"
    end;
    st.last_replay_seq <- vseq;
    st.last_replay_retired <- !(st.hot.k_retired);
    (* Squash from youngest down to the victim, inclusive. *)
    let continue_ = ref true in
    while !continue_ do
      match Deque.peek_back st.rob with
      | Some g when g.g_seq >= vseq ->
        ignore (Deque.pop_back st.rob);
        (* Slaves were dispatched after the master within the group. *)
        squash_slaves_rev st g (g.g_nslaves - 1);
        if g.g_master != dummy_copy then squash_copy st g.g_master;
        g.g_master <- dummy_copy;
        g.g_nslaves <- 0;
        Freelist.Slab.free st.group_pool g;
        Stats.incr st.ctrs "squashed_groups"
      | Some _ | None -> continue_ := false
    done;
    (* Copies squashed above sit in limbo until every structure that may
       still reference them has been walked (queues compact next issue
       phase) or drained (wheel keys never exceed the last finish time
       scheduled so far). *)
    st.limbo_flush_at <- max st.limbo_flush_at (max (st.cycle + 2) (st.max_finish + 1));
    (* The dispatch queues still hold squashed copies; compaction in the
       next issue phase removes them. Refetch from the victim. *)
    Fixed_queue.clear st.fetch_buffer;
    st.trace_idx <- vseq;
    st.redirect_pending <- false;
    st.fetch_resume <- st.cycle + st.cfg.replay_penalty;
    st.last_fetch_line <- -1;
    (* Drop squashed branches from the training queue, keeping order. *)
    let entries = ref [] in
    Deque.iter (fun e -> entries := e :: !entries) st.pending_train;
    Deque.clear st.pending_train;
    List.iter
      (fun ((_, seq, _, _) as e) -> if seq < vseq then Deque.push_back st.pending_train e)
      (List.rev !entries);
    st.max_issued_seq <- min st.max_issued_seq (vseq - 1);
    st.stall_cycles <- 0

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Due entries are popped from the front (oldest first) and trained
   newest-first, matching the order the old prepend-and-partition list
   walked them in. *)
let train_phase st =
  let due = ref [] in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Deque.peek_front st.pending_train with
    | Some (c, _, _, _) when c <= st.cycle ->
      (match Deque.pop_front st.pending_train with
      | Some e ->
        due := e :: !due;
        incr n
      | None -> assert false)
    | Some _ | None -> continue_ := false
  done;
  List.iter (fun (_, _, tok, taken) -> Mcfarling.train st.predictor tok ~taken) !due;
  !n

(* Cluster state for a given architectural-register assignment: a cluster
   holds physical copies only of the registers assigned to it; the rest of
   the initial mappings go back to the freelist. *)
let build_clusters cfg assignment =
  let n_clusters = Assignment.num_clusters assignment in
  let nq = num_queues cfg.queue_split in
  let make_regfile cl_id =
    let rf = Regfile.create ~num_phys:cfg.phys_per_bank in
    List.iter
      (fun r ->
        if (not (Reg.is_zero r)) && not (Assignment.readable_in assignment r cl_id) then
          Regfile.release rf (Regfile.bank_of_reg r) (Regfile.lookup rf r))
      Reg.all;
    rf
  in
  Array.init n_clusters (fun cl_id ->
      { cl_id;
        rf = make_regfile cl_id;
        fu = Fu.create cfg.issue_limits;
        dqs = Array.init nq (fun _ -> Deque.create ());
        dq_waiting = Array.make nq 0;
        cl_waiting = 0;
        wait_regs =
          Array.init 2 (fun _ -> Array.init cfg.phys_per_bank (fun _ -> Vec.create ()));
        ready_qs = Array.init nq (fun _ -> Vec.create ());
        ready_dirty = Array.make nq false;
        operand_buf = Transfer_buffer.create ~entries:cfg.operand_buffer_entries;
        result_buf = Transfer_buffer.create ~entries:cfg.result_buffer_entries })

let init_state ?(engine = `Wakeup) ?profile ?on_event ?on_occupancy ?(occupancy_period = 16)
    cfg =
  validate_config cfg;
  if occupancy_period < 1 then invalid_arg "Machine: occupancy_period < 1";
  let observed, emit =
    match on_event with Some f -> (true, f) | None -> (false, fun (_ : event) -> ())
  in
  let ctrs = Stats.counters_create () in
  let k = Stats.counter ctrs in
  let hot =
    { k_retired = k "retired";
      k_single_distributed = k "single_distributed";
      k_dual_distributed = k "dual_distributed";
      k_slave_issues = k "slave_issues";
      k_scenarios = Array.map k scenario_counters;
      k_stall_rob_full = k "stall_rob_full";
      k_stall_dq_full = k "stall_dq_full";
      k_stall_phys = k "stall_phys";
      k_ooo_issues = k "ooo_issues";
      k_ooo_issue_distance = k "ooo_issue_distance";
      k_issue_active = k "issue_active_cycles";
      k_both_active = k "both_clusters_active_cycles";
      k_fetch_stall = k "fetch_stall_cycles";
      k_icache_fetch_misses = k "icache_fetch_misses";
      k_mispredicted_fetches = k "mispredicted_fetches";
      k_redirects = k "redirects";
      k_squashed_copies = k "squashed_copies" }
  in
  let n_clust = Assignment.num_clusters cfg.assignment in
  { cfg;
    engine;
    n_clust;
    hops = Interconnect.matrix cfg.topology ~clusters:n_clust;
    assignment = cfg.assignment;
    trace = Flat_trace.of_dynamic_array [||];
    clusters = build_clusters cfg cfg.assignment;
    plan_memo = [||];
    plan_instrs = [||];
    splan_memo = [||];
    splan_instrs = [||];
    plan_dummy = Instr.make ~op:Op_class.Int_other ~srcs:[] ~dst:None;
    steer_dynamic = Steering.is_dynamic cfg.steering && n_clust > 1;
    steer_train = cfg.steering = Steering.Ineffectual && n_clust > 1;
    steer_rr = 0;
    steer_kind = 0;
    steer_hits = 0;
    steer_fallbacks = 0;
    steer_dead_exiles = 0;
    ineff = Steering.Ineff_table.create ();
    arch_last_pc = Array.make (Reg.num_int + Reg.num_fp) (-1);
    arch_read = Array.make (Reg.num_int + Reg.num_fp) false;
    icache = Cache.create cfg.icache;
    dcache = Cache.create cfg.dcache;
    predictor = Mcfarling.create ~config:cfg.predictor ();
    rob = Deque.create ();
    fetch_buffer = Fixed_queue.create ~capacity:(2 * cfg.fetch_width);
    ctrs;
    hot;
    emit;
    observed;
    on_occupancy;
    occupancy_period;
    prof = profile;
    src_wheel = Bucket_queue.create ~capacity:256 ();
    wake_wheel = Bucket_queue.create ~capacity:64 ();
    wake_scratch = Vec.create ();
    copy_pool = Freelist.Slab.create ~initial:256 ~make:make_pool_copy ~slot:copy_slot ();
    group_pool = Freelist.Slab.create ~initial:128 ~make:make_pool_group ~slot:group_slot ();
    limbo = Vec.create ();
    limbo_flush_at = 0;
    (* Placeholders; the real drain callbacks close over the state record
       and are installed right below, once. *)
    src_drain = ignore;
    wake_drain = ignore;
    scratch_work = 0;
    cycle = 0; trace_idx = 0; fetch_resume = 0; redirect_pending = false;
    last_fetch_line = -1; max_finish = 0; stall_cycles = 0; pending_train = Deque.create ();
    max_issued_seq = -1; head_blocked_seq = -1; head_blocked_age = 0;
    last_replay_seq = -1; last_replay_retired = 0; starving_seq = -1 }

let init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg =
  let st = init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg in
  st.src_drain <- src_wakeup st;
  st.wake_drain <- wake_collect st;
  st

(* Registers whose cluster placement changes between two assignments: the
   values the reassignment hardware must copy between register files. *)
let moved_registers old_asg new_asg =
  List.filter
    (fun r ->
      (not (Reg.is_zero r))
      && Assignment.clusters_of old_asg r <> Assignment.clusters_of new_asg r)
    Reg.all

(* The count alone, for the emptiness test in [load_phase]: no list is
   materialised. *)
let moved_register_count old_asg new_asg =
  List.fold_left
    (fun n r ->
      if
        (not (Reg.is_zero r))
        && Assignment.clusters_of old_asg r <> Assignment.clusters_of new_asg r
      then n + 1
      else n)
    0 Reg.all

(* Switch to a new phase. The pipeline must be drained (rob empty). The
   reassignment overhead models draining the write buffers and copying
   the moved architectural values across clusters at two registers per
   cycle, plus a fixed resynchronization cost. *)
let load_phase st assignment trace =
  assert (Deque.is_empty st.rob);
  if Assignment.num_clusters assignment <> Assignment.num_clusters st.assignment then
    invalid_arg "Machine.load_phase: cluster count cannot change";
  (* A switch that moves no registers (the same value, or a structurally
     equal one) costs nothing and keeps the clusters' state untouched. *)
  let overhead =
    if assignment == st.assignment then 0
    else
      match moved_register_count st.assignment assignment with
      | 0 -> 0
      | moved ->
        Stats.add st.ctrs "reassigned_registers" moved;
        Stats.incr st.ctrs "reassignments";
        st.assignment <- assignment;
        st.clusters <- build_clusters st.cfg assignment;
        4 + ((moved + 1) / 2)
  in
  st.trace <- trace;
  st.trace_idx <- 0;
  (* Plans may depend on the (possibly new) assignment, and interned
     instructions belong to the incoming trace: drop every memo slot. *)
  Array.fill st.plan_memo 0 (Array.length st.plan_memo) None;
  Array.fill st.plan_instrs 0 (Array.length st.plan_instrs) st.plan_dummy;
  Array.fill st.splan_memo 0 (Array.length st.splan_memo) None;
  Array.fill st.splan_instrs 0 (Array.length st.splan_instrs) st.plan_dummy;
  (* Whether a value from the outgoing phase gets read can no longer be
     observed; drop the per-register training state (the ineffectuality
     table itself persists, like the branch predictor). *)
  Array.fill st.arch_last_pc 0 (Array.length st.arch_last_pc) (-1);
  Array.fill st.arch_read 0 (Array.length st.arch_read) false;
  Fixed_queue.clear st.fetch_buffer;
  st.redirect_pending <- false;
  st.fetch_resume <- st.cycle + overhead;
  st.last_fetch_line <- -1;
  Deque.clear st.pending_train;
  st.max_issued_seq <- -1;
  st.stall_cycles <- 0;
  (* Seqs are positions in the incoming trace: stale starvation tracking
     from the previous phase must not freeze the new one. *)
  st.head_blocked_seq <- -1;
  st.head_blocked_age <- 0;
  st.last_replay_seq <- -1;
  st.last_replay_retired <- !(st.hot.k_retired);
  st.starving_seq <- -1

(* The thesis's starvation rule: young slaves can keep recycling the
   transfer-buffer entries while the oldest instruction starves behind a
   full buffer. When the head of the window has been buffer-blocked for
   long enough - even though the machine as a whole is making progress -
   an instruction-replay exception frees the entries. *)
let head_starvation_check st =
  let blocked_head =
    match Deque.peek_front st.rob with
    | Some g when group_blocked_on_buffer st g -> g.g_seq
    | Some _ | None -> -1
  in
  if blocked_head < 0 then begin
    st.head_blocked_seq <- -1;
    st.head_blocked_age <- 0
  end
  else if blocked_head = st.head_blocked_seq then
    st.head_blocked_age <- st.head_blocked_age + 1
  else begin
    st.head_blocked_seq <- blocked_head;
    st.head_blocked_age <- 1
  end;
  if st.head_blocked_age >= 8 * st.cfg.replay_threshold then begin
    Stats.incr st.ctrs "head_starvation_replays";
    replay st;
    st.head_blocked_seq <- -1;
    st.head_blocked_age <- 0
  end

(* Occupancy snapshot for the sampling sink: ROB entries, waiting
   dispatch-queue entries and in-use transfer-buffer entries per cluster.
   Only built when a sink is attached, so unobserved runs allocate
   nothing here. *)
(* Snapshots rescan the queues and cross-check the running [cl_waiting]
   totals the dispatch-steering hot path trusts. *)
let cluster_waiting cl =
  let scan = total_waiting cl in
  assert (scan = cl.cl_waiting);
  scan

(* The steering argmin the dispatch hot path computes from the running
   totals must match one recomputed from a full queue rescan. *)
let steering_cross_check st =
  let n = Array.length st.clusters in
  if n > 1 then begin
    let rec rescan_argmin i best best_w =
      if i >= n then best
      else begin
        let w = total_waiting st.clusters.(i) in
        if w < best_w then rescan_argmin (i + 1) i w else rescan_argmin (i + 1) best best_w
      end
    in
    let fast = steer_argmin st.clusters 1 n 0 st.clusters.(0).cl_waiting in
    assert (fast = rescan_argmin 1 0 (total_waiting st.clusters.(0)))
  end

let occupancy_snapshot st =
  steering_cross_check st;
  let in_use buf = Transfer_buffer.entries buf - Transfer_buffer.available buf ~cycle:st.cycle in
  { oc_cycle = st.cycle;
    oc_rob = Deque.length st.rob;
    oc_dispatch_queues = Array.map cluster_waiting st.clusters;
    oc_operand_buffers = Array.map (fun cl -> in_use cl.operand_buf) st.clusters;
    oc_result_buffers = Array.map (fun cl -> in_use cl.result_buf) st.clusters }

(* Recycle squashed copies once the flush watermark has passed (every
   stale queue/wheel reference has been compacted or drained by then). *)
let rec flush_limbo_from st i =
  if i < Vec.length st.limbo then begin
    Freelist.Slab.free st.copy_pool (Vec.get st.limbo i);
    flush_limbo_from st (i + 1)
  end

let run_loop ?(on_cycle = fun () -> ()) st ~max_cycles =
  let finished () =
    st.trace_idx >= Flat_trace.length st.trace
    && Fixed_queue.is_empty st.fetch_buffer
    && Deque.is_empty st.rob
  in
  (* When profiling, bracket each phase with [Gc.minor_words] so the
     allocation summary names the allocating stage. [phase_alloc] takes
     top-level functions only, so the profiled loop itself stays
     allocation-free apart from the boxed floats [Gc.minor_words]
     returns. (Hoisted out of the cycle loop: a per-iteration closure
     would itself show up in every stage's numbers.) *)
  let phase_alloc stage f =
    match st.prof with
    | None -> f st
    | Some p ->
      let m0 = Gc.minor_words () in
      let r = f st in
      Profile_counters.add_alloc p stage ~words:(Gc.minor_words () -. m0);
      r
  in
  while not (finished ()) do
    if st.cycle > max_cycles then
      failwith
        (Printf.sprintf
           "Machine.run: cycle limit exceeded (model bug): %d cycles elapsed (max_cycles \
            %d), %d instructions retired, trace position %d of %d, %d groups in flight"
           st.cycle max_cycles (Stats.get st.ctrs "retired") st.trace_idx
           (Flat_trace.length st.trace) (Deque.length st.rob));
    if Vec.length st.limbo > 0 && st.cycle >= st.limbo_flush_at then begin
      flush_limbo_from st 0;
      Vec.clear st.limbo
    end;
    let woke = phase_alloc stage_wake wake_phase in
    let retired = phase_alloc stage_retire retire_phase in
    let trained = phase_alloc stage_train train_phase in
    let issued = phase_alloc stage_issue issue_phase in
    let dispatched = phase_alloc stage_dispatch dispatch_phase in
    let fetched = phase_alloc stage_fetch fetch_phase in
    (match st.prof with
    | Some p ->
      Profile_counters.note_cycle p;
      Profile_counters.add p stage_retire ~work:retired;
      Profile_counters.add p stage_train ~work:trained;
      Profile_counters.add p stage_dispatch ~work:dispatched;
      Profile_counters.add p stage_fetch ~work:fetched
    | None -> ());
    let in_flight_exec = st.max_finish > st.cycle in
    let progress =
      retired > 0 || issued > 0 || dispatched > 0 || woke > 0 || fetched > 0 || in_flight_exec
    in
    if (not progress) && not (Deque.is_empty st.rob) then begin
      st.stall_cycles <- st.stall_cycles + 1;
      if st.stall_cycles >= st.cfg.replay_threshold then replay st
    end
    else st.stall_cycles <- 0;
    head_starvation_check st;
    (match st.on_occupancy with
    | Some f when st.cycle mod st.occupancy_period = 0 -> f (occupancy_snapshot st)
    | Some _ | None -> ());
    on_cycle ();
    st.cycle <- st.cycle + 1
  done

let finish_result st =
  let cycles = st.cycle in
  let retired = Stats.get st.ctrs "retired" in
  Array.iteri
    (fun i cl ->
      Stats.add st.ctrs (Printf.sprintf "issued_c%d" i) (Fu.total_issued cl.fu);
      Stats.add st.ctrs
        (Printf.sprintf "operand_buf_hw_c%d" i)
        (Transfer_buffer.high_water cl.operand_buf);
      Stats.add st.ctrs
        (Printf.sprintf "result_buf_hw_c%d" i)
        (Transfer_buffer.high_water cl.result_buf))
    st.clusters;
  Stats.add st.ctrs "branch_predictions" (Mcfarling.predictions st.predictor);
  Stats.add st.ctrs "branch_mispredictions" (Mcfarling.mispredictions st.predictor);
  Stats.add st.ctrs "dcache_accesses" (Cache.accesses st.dcache);
  Stats.add st.ctrs "dcache_misses"
    (Cache.primary_misses st.dcache + Cache.secondary_misses st.dcache);
  Stats.add st.ctrs "icache_accesses" (Cache.accesses st.icache);
  Stats.add st.ctrs "icache_misses"
    (Cache.primary_misses st.icache + Cache.secondary_misses st.icache);
  (* Steering statistics exist only under a dynamic policy, so a [Static]
     machine's counter list — and every golden diffed against it — is
     exactly the pre-steering one. *)
  if Steering.is_dynamic st.cfg.steering then begin
    Stats.add st.ctrs "steer_hits" st.steer_hits;
    Stats.add st.ctrs "steer_fallbacks" st.steer_fallbacks;
    Stats.add st.ctrs "steer_dead_exiles" st.steer_dead_exiles;
    Stats.add st.ctrs "ineff_trainings" (Steering.Ineff_table.trainings st.ineff);
    Stats.add st.ctrs "ineff_dead_trainings" (Steering.Ineff_table.dead_trainings st.ineff)
  end;
  Stats.add st.ctrs "cycles" cycles;
  let counter_lookup = Stats.lookup_of_counters st.ctrs in
  { cycles;
    retired;
    ipc = Stats.ratio retired cycles;
    single_distributed = Stats.get st.ctrs "single_distributed";
    dual_distributed = Stats.get st.ctrs "dual_distributed";
    replays = Stats.get st.ctrs "replays";
    branch_accuracy = Mcfarling.accuracy st.predictor;
    icache_miss_rate = Cache.miss_rate st.icache;
    dcache_miss_rate = Cache.miss_rate st.dcache;
    counters = Stats.lookup_to_alist counter_lookup;
    counter_lookup }

let run_phased_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period
    ?(max_cycles = 200_000_000) cfg phases =
  let st = init_state ?engine ?profile ?on_event ?on_occupancy ?occupancy_period cfg in
  List.iter
    (fun (assignment, trace) ->
      load_phase st assignment trace;
      run_loop st ~max_cycles)
    phases;
  finish_result st

let run_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg trace =
  run_phased_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg
    [ (cfg.assignment, trace) ]

let run ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg trace =
  run_flat ?engine ?profile ?on_event ?on_occupancy ?occupancy_period ?max_cycles cfg
    (Flat_trace.of_dynamic_array trace)

(* ------------------------------------------------------------------ *)
(* Resumable-state API: functional warming and detailed intervals      *)
(* ------------------------------------------------------------------ *)

(* Functional warming (SMARTS-style): advance the long-history
   microarchitectural state - i-cache, d-cache, branch predictor - over
   skipped instructions at one cycle per instruction, without modeling
   the pipeline. The i-cache is touched at line granularity exactly as
   fetch would, and conditional branches run the full
   predict/note/train sequence (training is immediate; the detailed
   model's dispatch-to-execute training lag only matters over the
   handful of in-flight branches, which the detailed warmup prefix of
   the next interval re-establishes). *)
let warm_flat st trace ~lo ~hi =
  if lo < 0 || hi > Flat_trace.length trace || lo > hi then
    invalid_arg "Machine.warm: bad interval";
  for i = lo to hi - 1 do
    st.cycle <- st.cycle + 1;
    let addr = Flat_trace.pc trace i * 4 in
    let line = addr / st.cfg.icache.Cache.line_bytes in
    if line <> st.last_fetch_line then begin
      ignore (Cache.access st.icache ~cycle:st.cycle ~addr ~write:false);
      st.last_fetch_line <- line
    end;
    if Flat_trace.is_memory trace i then
      ignore
        (Cache.access st.dcache ~cycle:st.cycle ~addr:(Flat_trace.mem_addr trace i)
           ~write:(Flat_trace.is_store trace i));
    if Flat_trace.is_cond_branch trace i then begin
      let taken = Flat_trace.branch_taken trace i in
      let _, tok = Mcfarling.predict st.predictor ~pc:(Flat_trace.pc trace i) in
      Mcfarling.note_outcome st.predictor ~taken;
      Mcfarling.train st.predictor tok ~taken
    end
  done;
  Stats.add st.ctrs "warmed_instructions" (hi - lo)

type interval = { iv_warmup_cycles : int; iv_cycles : int; iv_retired : int }

let run_interval_flat ?(max_cycles = 200_000_000) st trace ~lo ~hi ~measure_from =
  if lo < 0 || hi > Flat_trace.length trace || lo >= hi then
    invalid_arg "Machine.run_interval: bad interval";
  if measure_from < lo || measure_from >= hi then
    invalid_arg "Machine.run_interval: measure_from outside [lo, hi)";
  (* The detailed model requires seq = trace position (replay refetches by
     position); a flat sub-trace re-bases positions at 0 for free. *)
  let sub = Flat_trace.sub trace ~pos:lo ~len:(hi - lo) in
  load_phase st st.assignment sub;
  let start = st.cycle in
  let retired0 = Stats.get st.ctrs "retired" in
  let threshold = measure_from - lo in
  let boundary = ref start in
  let seen = ref (threshold <= 0) in
  run_loop st ~max_cycles
    ~on_cycle:(fun () ->
      if (not !seen) && Stats.get st.ctrs "retired" - retired0 >= threshold then begin
        seen := true;
        boundary := st.cycle + 1
      end);
  Stats.incr st.ctrs "detailed_intervals";
  { iv_warmup_cycles = !boundary - start;
    iv_cycles = st.cycle - !boundary;
    iv_retired = hi - measure_from }

let state_result st = finish_result st

(* Test hook: (copy live, copy built, group live, group built). Live
   counts include limbo residents not yet flushed back to the pool. *)
let pool_stats st =
  ( Mcsim_util.Freelist.Slab.live st.copy_pool,
    Mcsim_util.Freelist.Slab.built st.copy_pool,
    Mcsim_util.Freelist.Slab.live st.group_pool,
    Mcsim_util.Freelist.Slab.built st.group_pool )

(** Compact struct-of-arrays encoding of a committed dynamic trace.

    A flat trace stores one dynamic instruction per index across three
    parallel Bigarrays — 16 bytes per instruction — instead of one
    {!Instr.dynamic} record (plus option boxes) per instruction:

    - [pcs]  : int32 — static instruction address (word-granular);
    - [codes]: int32 — packed static instruction plus dynamic flags;
    - [aux]  : int64 — memory address (loads/stores) or branch target
      (control), which are mutually exclusive by construction.

    The [codes] word layout (low bit first):

    {v
    bits 0-2   operation class (8 variants; both fp-divide widths)
    bits 3-9   source 0:  present(1) | bank(1) | index(5)
    bits 10-16 source 1:  present(1) | bank(1) | index(5)
    bits 17-23 destination, same field layout
    bit 24     has branch payload (control ops)
    bit 25     branch is conditional
    bit 26     branch taken            (the only per-dynamic-instance bit)
    bit 27     has memory payload (loads/stores)
    v}

    Because everything but bit 26 is a function of the static instruction,
    construction interns one {!Instr.t} per static pc (a single eager pass
    over the arrays): steady-state replay reads plain integers and reuses
    the interned record, so walking a flat trace performs no
    per-instruction decode at all — and because the table is never written
    after construction, one trace can be decoded concurrently from many
    domains. Positions are the [seq] numbers — index [i] always
    decodes with [seq = i], and {!sub} re-bases a window to start at 0,
    which is exactly the renumbering sampled simulation wants.

    The Bigarray representation is what makes the on-disk trace store
    possible: the three arrays are blitted to / memory-mapped from disk
    without touching the OCaml heap (see [Mcsim.Trace_store]). *)

type int32_array =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type int64_array =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val length : t -> int

(** {1 Per-index accessors}

    All of these are allocation-free. None of them mutate the trace, so
    concurrent use from multiple domains is safe. Indices are not
    bounds-checked beyond the underlying Bigarray check. *)

val pc : t -> int -> int
val is_load : t -> int -> bool
val is_store : t -> int -> bool
val is_memory : t -> int -> bool
val has_branch : t -> int -> bool
val is_cond_branch : t -> int -> bool
val branch_taken : t -> int -> bool

val branch_target : t -> int -> int
(** Meaningful only when [has_branch]. *)

val mem_addr : t -> int -> int
(** Meaningful only when [is_memory]. *)

val instr : t -> int -> Instr.t
(** The static instruction, interned per pc: repeated calls for the same
    pc return the same physical record (hand-built traces that reuse a pc
    for different instructions decode fresh instead). *)

(** {1 Whole-trace operations} *)

val sub : t -> pos:int -> len:int -> t
(** O(1) window sharing storage and the intern table; index 0 of the
    result is index [pos] of [t], so decoded [seq] numbers restart at 0. *)

val of_dynamic_array : Instr.dynamic array -> t
(** Pack a record trace. [seq] fields are ignored — position is law. *)

val to_dynamic_array : t -> Instr.dynamic array
(** Materialise records ([seq = i]); inverse of {!of_dynamic_array} for
    traces whose [seq] equals the index. *)

(** {1 Builder} *)

module Builder : sig
  type trace := t
  type t

  val create : ?capacity:int -> unit -> t

  val emit :
    t -> pc:int -> ?mem_addr:int -> ?branch:Instr.branch_info -> Instr.t -> unit
  (** Append one instruction. Payload/class consistency follows
      {!Instr.dynamic}'s rules.
      @raise Invalid_argument on a mismatched payload. *)

  val length : t -> int
  val finish : t -> trace
end

(** {1 Raw storage access — for serialisation only} *)

val unsafe_arrays : t -> int32_array * int32_array * int64_array
(** The live [(pcs, codes, aux)] backing arrays, each of {!length}
    elements. Mutating them invalidates the intern table. *)

val of_arrays : int32_array -> int32_array -> int64_array -> t
(** Adopt [(pcs, codes, aux)] (equal lengths) as a trace, e.g. freshly
    memory-mapped storage. The intern table is built here, so an
    ill-formed code word raises at adoption time.
    @raise Invalid_argument if lengths differ or a code word is
    ill-formed. *)

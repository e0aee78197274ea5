(** Content-addressed on-disk cache of flat binary traces.

    Trace generation (profile + compile + walk) is a pure function of
    [(benchmark, scheduler, seed, max_instrs)], so its output can be paid
    once per corpus and memory-mapped back on every later run — the same
    amortize-once discipline {!Checkpoint} applies to experiment units,
    with the same safety properties: files are written to a temp name and
    atomically renamed into place, keys are digest-addressed, and
    anything unreadable, truncated, corrupt, or written under a different
    format version is treated as missing and regenerated.

    {1 File format}

    One file per trace, [trace-<key>-<digest8>.mctrace], a 32-byte header
    followed by the three {!Mcsim_isa.Flat_trace} arrays back to back and
    the full key string as a trailer:

    {v
    offset size  field
    0      8     magic "MCTRACE1"
    8      4     format version (native-endian int32 — doubles as an
                 endianness probe: a foreign-endian file reads as a
                 version mismatch and is regenerated)
    12     4     instruction count n
    16     8     FNV-1a checksum of the payload words (native-endian
                 int64; order-sensitive, computed over the three arrays
                 in file order)
    24     4     key length L (native-endian int32)
    28     4     reserved (zero)
    32     4·n   pcs   (int32)
    32+4n  4·n   codes (int32)
    32+8n  8·n   aux   (int64)
    32+16n L     full key string ({!key_string})
    v}

    Loading maps the three regions copy-on-write and verifies the
    checksum over the mapped words: no per-instruction allocation, no
    streaming re-read (the checksum runs at memory speed, where an MD5
    pass would cost more than the load it protects), and the OS shares
    the pages across concurrent simulator processes. The file name only
    carries a 32-bit digest prefix of the key, so {!find} also compares
    the trailer against the key it is looking up — a digest-prefix
    collision between two keys reads as a miss, never as the wrong
    trace. *)

type t
(** A store rooted at a directory. *)

val open_ : dir:string -> t
(** Create the directory (and parents) if needed. *)

(** What a cached trace is a function of. [scheduler] is the compile
    pipeline's scheduler description (e.g. ["none"], ["local"]) — the
    rescheduled binary of the same benchmark is a different trace. *)
type key = {
  benchmark : string;
  scheduler : string;
  seed : int;
  max_instrs : int;
}

val key_string : key -> string
(** The identity string the file name's digest is derived from; includes
    the format version. *)

val path : t -> key -> string
(** The file this key maps to (whether or not it exists). *)

val find : t -> key -> Mcsim_isa.Flat_trace.t option
(** Memory-map the cached trace, or [None] if absent, corrupt, truncated,
    checksum-mismatched, version-mismatched, or stored under a different
    full key (file-name digest collision). *)

val save : t -> key -> Mcsim_isa.Flat_trace.t -> unit
(** Write atomically (temp file + rename); concurrent writers of the same
    key are safe, last rename wins. A failed write removes its temp file
    before re-raising.
    @raise Sys_error / Unix.Unix_error on I/O failure. *)

val load_or_build :
  t -> key -> (unit -> Mcsim_isa.Flat_trace.t) -> Mcsim_isa.Flat_trace.t * [ `Hit | `Miss ]
(** [find], falling back to building and saving. A failed save (e.g. a
    read-only store) is swallowed — the build result is still returned,
    the cache just stays cold. *)

(** One stored trace, as listed by {!entries}. *)
type entry = {
  e_file : string;  (** basename within the store *)
  e_instrs : int;
  e_bytes : int;  (** file size *)
  e_valid : bool;  (** header and payload checksum check out *)
}

val entries : t -> entry list
(** All [*.mctrace] files in the store, sorted by name. Validation maps
    and checksums each file once. *)

val prune_keep_latest : t -> int -> string list
(** [prune_keep_latest t n] deletes all but the [n] most recently
    modified [*.mctrace] files (ties broken by name) and returns the
    removed basenames, sorted — bounds on-disk cache growth.
    @raise Invalid_argument when [n < 0]. *)

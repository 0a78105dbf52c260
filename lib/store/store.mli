(** The content-addressed artifact store.

    Link artifacts — compiled units, per-module lifts, linked images —
    are cached under digest keys in two layers: an in-memory LRU (bytes
    bounded) over an optional on-disk cache directory. The daemon and the
    incremental relink engine share one store, so a one-module edit hits
    the cache for everything that did not change.

    Disk entries are written atomically (temp file + rename) and carry
    their payload's digest; a read re-hashes the payload and evicts the
    entry on mismatch, so a corrupted or truncated cache file degrades to
    a miss (the caller recomputes) instead of poisoning a link. All
    operations are mutex-protected and safe to call from multiple
    domains. *)

type kind =
  | Cunit   (** compiled object modules, serialized with {!Objfile.Obj_io} *)
  | Lifted  (** per-module symbolic lifts ({!Om.Lift.module_sym}) *)
  | Image   (** linked/optimized executable images *)

val kind_name : kind -> string
val all_kinds : kind list

val digest_string : string -> string
(** Hex content digest (MD5). The one digest function of the system:
    artifact keys, cache re-validation and the measurement harness's
    image keys all use it. *)

val digest_bytes : Bytes.t -> string

type counters = {
  mem_hits : int;
  mem_misses : int;    (** in-memory miss (before consulting disk) *)
  disk_hits : int;
  disk_misses : int;   (** full miss: the caller had to recompute *)
  evictions : int;     (** LRU evictions from the memory layer *)
  corruptions : int;   (** disk entries evicted on digest mismatch *)
  puts : int;
}

val counters_zero : counters
val counters_diff : counters -> counters -> counters
val counters_add : counters -> counters -> counters
val counters_to_alist : counters -> (string * int) list

type t

val default_dir : unit -> string option
(** The on-disk cache directory: [$OMLT_STORE], defaulting to
    ["_omstore"]. [OMLT_STORE=none] (or the empty string) disables the
    disk layer entirely. *)

val create : ?dir:string option -> ?mem_capacity:int -> unit -> t
(** [dir] defaults to {!default_dir}[ ()]; pass [None] for a memory-only
    store. [mem_capacity] bounds the memory layer in payload bytes
    (default 256 MB); least-recently-used entries are evicted when an
    insertion overflows it. The directory is created lazily on first
    write. *)

val in_memory : unit -> t
(** [create ~dir:None ()]. *)

val dir : t -> string option

val put : t -> kind -> key:string -> string -> unit
(** Insert a payload under [key] in both layers. Disk failures (read-only
    directory, full disk) are swallowed: the store is a cache, not a
    database. *)

val get : t -> kind -> key:string -> string option
(** Memory first, then disk (promoting a disk hit into memory). *)

val counters : t -> kind -> counters
(** A snapshot of [kind]'s counters since the store was created. *)

val counters_total : t -> counters

val disk_ops : t -> int
(** Total attempted filesystem operations (reads and writes) since the
    store was created. A memory-only store reports 0 forever; a
    disk-backed store reports 0 deltas on fully-warm requests — the
    daemon's proof that its hot path never leaves memory. *)

val mem_entries : t -> int
val mem_bytes : t -> int

(** Typed serialization of store artifacts.

    The store itself traffics in opaque payload strings; this module maps
    the three artifact kinds to and from them. Compilation units use the
    object-file format (already a total, versioned codec); per-module
    lifts and linked images — internal, plain-data structures — use
    [Marshal], guarded on the way in by the store's digest check and on
    the way out by exception trapping, so damaged bytes degrade to a
    cache miss. A well-formed marshalling of another type cannot be
    detected that way, so a key must change whenever its payload's type
    does: see {!lifted_key}. *)
module Codec : sig
  val cunit_to_string : Objfile.Cunit.t -> string
  val cunit_of_string : string -> (Objfile.Cunit.t, string) result

  val cunit_digest : Objfile.Cunit.t -> string
  (** Digest of the unit's serialized form — the content key from which
      lift and image keys are built. *)

  val lifted_key : Objfile.Cunit.t -> string
  (** The key under which a unit's lift is stored: its {!cunit_digest}
      mixed with {!Om.Lift.format}, so a lift written in another format is
      never read back at the current type. *)

  val lifted_to_string : Om.Lift.module_sym -> string
  val lifted_of_string : string -> (Om.Lift.module_sym, string) result

  val image_to_string : Linker.Image.t -> string
  val image_of_string : string -> (Linker.Image.t, string) result

  val image_digest : Linker.Image.t -> string
  (** Content digest of a linked image (over its serialized form). Shared
      with the measurement harness, which keys its decoded-image cache by
      it. *)

  val archive_digest : Objfile.Archive.t -> string
  (** Content digest of a library archive, for building link keys. *)
end

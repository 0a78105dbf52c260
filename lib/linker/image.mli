(** Linked executable images.

    An image is what the machine simulator runs: a text segment, a data
    segment (initialized bytes followed by zero-filled space), the entry
    point, and the loader metadata the optimizer and the measurement
    harness care about — per-procedure descriptors with resolved GP values,
    a symbol map, and the extent of the linked GAT. *)

type proc_info = {
  name : string;
  entry : int;           (** absolute address *)
  size : int;            (** bytes *)
  gp_value : int;        (** the GP this procedure's code expects *)
  module_name : string;
  exported : bool;
  uses_gp : bool;
  gp_setup_at_entry : bool;
}

type t = {
  text_base : int;
  text : Bytes.t;
  data_base : int;
  data : Bytes.t;        (** includes zero-filled .bss tail *)
  entry : int;
  procs : proc_info array;
  symbols : (string * int) list;  (** resolved data/procedure addresses *)
  heap_base : int;
  gat_base : int;
  gat_bytes : int;
  ngroups : int;
}

val find_proc : t -> string -> proc_info option
val proc_containing : t -> int -> proc_info option
(** The procedure whose [entry, entry+size) range contains the address. *)

val symbol_address : t -> string -> int option

val insn_count : t -> int
(** Static number of instructions in the text segment. *)

val insns : t -> Isa.Insn.t array
(** Decoded text. Raises [Invalid_argument], naming the stream error, on
    undecodable words or truncated text. *)

val pp_disassembly : Format.formatter -> t -> unit
(** Text segment with procedure labels and addresses. *)

val validate : t -> (unit, string) result
(** Sanity checks: entry inside text, procedures non-overlapping and
    in-range, text decodable, GAT extent inside the data segment. *)

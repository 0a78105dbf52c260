(** Decoding 32-bit instruction words back into {!Insn.t}.

    [decode] is a left inverse of {!Encode.insn} on every encodable
    instruction (a property the test suite checks exhaustively by random
    round-trips). Words that do not correspond to any instruction in the
    modelled subset decode to [Error]. *)

type error = Bad_opcode of int | Bad_function of { opcode : int; funct : int }

val pp_error : Format.formatter -> error -> unit

val decode : int -> (Insn.t, error) result
(** [decode w] decodes the instruction word [w] (taken modulo 2^32). *)

val decode_exn : int -> Insn.t
(** Like {!decode} but raises [Invalid_argument] on undecodable words. *)

val decodable : int -> bool
(** [decodable w] iff [decode w] is [Ok _]; allocates nothing. *)

type stream_error =
  | Truncated of { length : int }
      (** the byte length is not a multiple of 4 *)
  | Undecodable of { offset : int; error : error }
      (** the first undecodable word, at this byte offset *)

val pp_stream_error : Format.formatter -> stream_error -> unit

val word : Bytes.t -> int -> int
(** [word b k] is the [k]th little-endian 32-bit word of [b]. *)

val check : Bytes.t -> (unit, stream_error) result
(** Whether a byte stream is a whole number of decodable instruction words.
    Total, and allocation-free unless it fails. *)

val of_bytes : Bytes.t -> (Insn.t list, error) result
(** Decode a little-endian instruction stream; the byte length must be a
    multiple of 4. *)

val of_bytes_loc : Bytes.t -> (Insn.t array, int * error) result
(** Like {!of_bytes} but into an array, and a failure carries the byte
    offset of the first undecodable word — so callers can report the real
    faulting address instead of the stream's base. *)

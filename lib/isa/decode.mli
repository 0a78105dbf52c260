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

val stream_error_offset : stream_error -> int
(** Byte offset of the first word that cannot be decoded; for
    [Truncated], the offset of the partial last word. *)

val of_bytes : Bytes.t -> (Insn.t array, stream_error) result
(** Decode a little-endian instruction stream. Total: a length that is
    not a multiple of 4 is [Truncated], and an undecodable word reports
    its byte offset, so callers can name the real faulting address
    instead of the stream's base. *)

(** {1 Raw fields}

    Classifying a word and reading its fields without building the
    instruction, for callers that scan a whole text and need only a few
    of its instructions decoded. Meaningful on words that {!decodable}
    accepts. *)

type kind =
  | Lda
  | Ldah
  | Ldq
  | Stq
  | Branch  (** [br], [bsr] and the conditional branches *)
  | Other

val kind : int -> kind

val ra : int -> Reg.t
val rb : int -> Reg.t
(** The memory- and branch-format register fields. *)

val branch_disp : int -> int
(** The sign-extended 21-bit displacement of a branch-format word. *)

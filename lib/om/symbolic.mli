(** The symbolic program form at the heart of OM.

    The optimizer translates the object code of the entire program into
    this form, transforms it, and generates executable code from the
    result. Because operands that depend on final addresses stay symbolic
    ({!sinsn} constructors other than [Raw]), instructions can be deleted,
    inserted and reordered freely without invalidating address constants or
    branch displacements — the key idea of the paper's §4. *)

type label = int

type pool_key =
  | Paddr of Linker.Resolve.target * int
      (** address of a program object plus addend *)
  | Pconst of int64
      (** a 64-bit literal constant *)

type anchor =
  | Aentry
      (** the base register holds the enclosing procedure's entry address
          ([pv] at procedure entry) *)
  | Alocal of label
      (** the base register holds the address of the labelled position
          ([ra] at a post-call return point) *)

type sinsn =
  | Raw of Isa.Insn.t
      (** concrete instruction; PC-relative branches never appear here *)
  | Gatload of { ra : Isa.Reg.t; key : pool_key }
      (** [ldq ra, slot(gp)] — an address load (or literal-pool load); the
          slot is assigned at lowering *)
  | Use of { insn : Isa.Insn.t; load_id : int; jsr : bool }
      (** an instruction consuming the register produced by the [Gatload]
          node with id [load_id] (the LITUSE link) *)
  | Gpsetup_hi of { base : Isa.Reg.t; anchor : anchor; lo_id : int }
  | Gpsetup_lo
      (** the [ldah]/[lda] pair computing GP; displacements assigned at
          lowering from the procedure's final GP value *)
  | Branch of { insn : Isa.Insn.t; target : label }
      (** PC-relative branch; displacement assigned at lowering *)
  | Gprel of {
      insn : Isa.Insn.t;
      target : Linker.Resolve.target;
      addend : int;
      part : part;
    }
      (** optimizer-introduced: a memory-format instruction whose
          displacement is derived from [address(target) + addend - GP] at
          lowering. [Pfull] is the whole 16-bit displacement (base register
          is [gp]); [Phi]/[Plo] are the halves of the 32-bit split (the
          paper's LDAH trick: an [ldah] over [gp] plus the use instruction
          carrying the low half, same instruction count as the indirect
          sequence). [Plo extra] adds the use's original displacement. *)
  | Lea_wide of { ra : Isa.Reg.t; target : Linker.Resolve.target; addend : int }
      (** optimizer-introduced: load a 32-bit-reachable address in two
          instructions, [ldah ra, hi(gp); lda ra, lo(ra)] *)
  | Gatload_wide of { ra : Isa.Reg.t; key : pool_key }
      (** relaxation-introduced long form of {!Gatload} for a slot outside
          the 16-bit GP window: [ldah ra, hi(gp); ldq ra, lo(ra)] *)
  | Bsr_far of { ra : Isa.Reg.t; target : label }
      (** relaxation-introduced long form of a [bsr] out of 21-bit span:
          [br pv, 0; ldah pv, hi(pv); lda pv, lo(pv); jsr ra, (pv)] — the
          callee address lands in [pv] exactly as the calling convention's
          GP setup expects *)
  | Br_far of { ra : Isa.Reg.t; target : label }
      (** long form of [br]: same shape through the assembler temporary
          [at], with [ra] still receiving the return address *)
  | Bcond_far of { cond : Isa.Insn.cond; ra : Isa.Reg.t; target : label }
      (** long form of a conditional branch: the inverted condition skips
          a {!Br_far}-shaped sequence *)
  | Elided of sinsn
      (** relaxation deleted this branch-to-next; width 0, labels (and so
          branch targets) on the node stay valid *)

and part = Pfull | Phi | Plo of int

type node = {
  nid : int;
      (** unique within the program, and dense: only {!make_node} hands
          out ids, in order from 0, so arrays of [program.next_node]
          entries can be indexed by them *)
  mutable labels : label list;  (** labels bound to this position *)
  mutable insn : sinsn;
}

type proc = {
  sp_index : int;               (** index in {!Linker.Resolve.t}'s procs *)
  sp_name : string;
  sp_module : int;
  entry_label : label;
  mutable body : node list;
  mutable sp_gp_group : int;    (** GAT group, assigned before lowering *)
}

type program = {
  world : Linker.Resolve.t;
  mutable procs : proc array;   (** in original text order *)
  mutable next_label : int;   (** labels are [0, next_label), see {!fresh_label} *)
  mutable next_node : int;    (** node ids are [0, next_node), see {!make_node} *)
  entry_name : string;
}

val fresh_label : program -> label
val make_node : program -> sinsn -> node

val insn_of_width : sinsn -> int
(** Instructions a node expands to at lowering: 2 for [Lea_wide] and
    [Gatload_wide], 4 for [Bsr_far]/[Br_far], 5 for [Bcond_far], 0 for
    [Elided], 1 otherwise. *)

val iter_nodes : program -> (proc -> node -> unit) -> unit

val defs : sinsn -> Isa.Reg.t list
val uses : sinsn -> Isa.Reg.t list
(** Register effects, GP included where applicable. *)

val defs_mask : sinsn -> int
val uses_mask : sinsn -> int
(** {!defs}/{!uses} as {!Isa.Insn.defs_mask}-style register bitmasks,
    computed without building the lists; they agree exactly. *)

val static_insn_count : program -> int

val pp_proc : Linker.Resolve.t -> Format.formatter -> proc -> unit
(** Readable dump for debugging and the [dis] command. *)

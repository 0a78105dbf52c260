(** Program analysis over the symbolic form.

    This is the "understanding of program structure that is thorough but
    not difficult at link-time" the paper relies on: basic-block recovery,
    register liveness, call-site discovery (with the PV address load and
    the GP-reset pair attached to each site), use-chains of address loads,
    and the set of procedures whose address escapes into data. *)

type use_status =
  | All_marked of Symbolic.node list
      (** every consumer of the loaded register before its death carries a
          LITUSE link; the listed nodes are those consumers *)
  | Escapes
      (** the register reaches an unmarked instruction, a control-flow
          join, or is live out of the block — the load's value cannot be
          reconstructed by rewriting its uses *)

type call_kind =
  | Direct of { callee : int; via : [ `Jsr of Symbolic.node | `Bsr ] }
      (** [callee] indexes {!Linker.Resolve.t}'s procs; [`Jsr n] carries
          the PV address-load node *)
  | Indirect
      (** through a procedure variable: the destination cannot be
          examined *)

type callsite = {
  cs_proc : int;                       (** index into [program.procs] *)
  cs_node : Symbolic.node;             (** the jsr/bsr itself *)
  cs_kind : call_kind;
  cs_reset : (Symbolic.node * Symbolic.node) option;
      (** the GP-reset [ldah]/[lda] pair anchored just after this call *)
}

type index = {
  bodies : Symbolic.node array array;  (** per program proc, body order *)
  node_proc : int array;
      (** per node id: index of the procedure whose body holds the node,
          or [-1] *)
  node_pos : int array;  (** per node id: position in that body *)
  label_proc : int array;
      (** per label: procedure of the node carrying it, or [-1] *)
  label_pos : int array;  (** per label: position of that node *)
}
(** Dense tables over the program as the analysis saw it. They rely on
    node ids and labels being handed out densely by {!Symbolic.make_node}
    and {!Symbolic.fresh_label}. *)

val index : Symbolic.program -> index

val find_node : index -> proc:int -> int -> Symbolic.node option
(** [find_node ix ~proc nid] is the node with id [nid] if procedure
    [proc]'s body holds it, in O(1); [None] for a node of another
    procedure or an unknown id. *)

val label_home : index -> Symbolic.label -> (int * Symbolic.node) option
(** The (procedure, node) a label is bound to. *)

type t = {
  program : Symbolic.program;
  index : index;
  callsites : callsite list;
  address_taken : bool array;
      (** per {!Linker.Resolve.t} proc index: address escapes into data or
          a register *)
  gatload_status : use_status option array;
      (** per node id: [Some] exactly for [Gatload] nodes *)
  live_out : int array;
      (** per node id: registers live after it, as an
          {!Isa.Insn.defs_mask}-style bitmask *)
}

val run :
  ?local_only:bool ->
  ?section_live:(int -> Objfile.Section.t -> bool) ->
  Symbolic.program -> t
(** [local_only:true] restricts the use-chain analysis to what a
    traditional linker could see (OM-simple): a load whose register is not
    provably dead {e within its basic block} escapes. The default uses
    liveness across the recovered control-flow graph (OM-full).

    [section_live] (default: everything) filters the data relocations
    that feed [address_taken]: om-gc passes {!Gc.section_live} so a
    procedure address held only by dead data no longer counts as
    escaping. *)

(** Generating an executable image from the (transformed) symbolic form.

    Lowering assigns final text offsets (optionally quadword-aligning
    instructions that are the targets of backward branches, which helps the
    dual-issue hardware), allocates the final GAT from the address loads
    that actually survive (GAT reduction becomes visible here), patches
    every symbolic operand, lays out the data region per the
    {!Datalayout.plan}, and fills in the loader metadata. *)

type options = { align_branch_targets : bool }

val default_options : options

type placement = {
  node_off : int array;
      (** per node id: text offset, or [-1] for a node in no body *)
  proc_off : int array;             (** per program proc *)
  proc_end : int array;
  pad_offsets : int list;           (** offsets where an alignment no-op goes *)
  text_size : int;
}
(** Where every node lands in text. [Relax] iterates this to decide which
    span-dependent sites fit; [run] recomputes the identical placement when
    it finally encodes. *)

val place : ?options:options -> Symbolic.program -> placement
(** Assign final text offsets (with branch-target alignment padding when
    the options ask for it), honouring each node's current
    {!Symbolic.insn_of_width}. *)

val label_offsets : Symbolic.program -> placement -> int array
(** Per label: the text offset of the node carrying it, or [-1]. *)

val label_offset : int array -> Symbolic.label -> int
(** Look a label up in {!label_offsets}' table; [-1] when unbound,
    including for a label the table does not cover. *)

type gat_alloc = {
  ga_tables : (Symbolic.pool_key, int) Hashtbl.t array;
      (** per group: key -> slot index *)
  ga_counts : int array;
}

val alloc_gat :
  Symbolic.program -> Datalayout.plan -> (gat_alloc, string) result
(** Allocate GAT slots in first-reference program order — deterministic,
    so a relaxation pass sees the same slot addresses [run] will encode.
    Fails if a group outgrows its reservation. *)

val run :
  ?options:options -> Symbolic.program -> Datalayout.plan ->
  (Linker.Image.t * int, string) result
(** Returns the image and the final GAT size in bytes (the number of slots
    actually allocated, before padding to the plan's reservation). *)

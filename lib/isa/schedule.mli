(** Generic basic-block list scheduling.

    Both the compiler's [-O2] pipeline scheduler and the optimizer's
    link-time rescheduling pass use this module; they differ only in how
    they describe their instruction-like nodes.

    Dependences considered: register RAW/WAR/WAW, conservative memory
    ordering (no alias analysis: store-load, load-store and store-store
    pairs are ordered), and [barrier] nodes, which stay ordered relative to
    {e every} other node. The scheduler is greedy critical-path list
    scheduling with a dual-issue awareness bonus: among ready nodes of equal
    height it prefers one that can pair with the previously chosen node. *)

type node = {
  defs : int;       (** registers written, as an {!Insn.defs_mask} *)
  uses : int;       (** registers read, as an {!Insn.uses_mask} *)
  reads_mem : bool;
  writes_mem : bool;
  barrier : bool;   (** e.g. calls, PAL gates, pinned instructions *)
  latency : int;
  pipe : Latency.pipe;
}

val node_of_insn : ?barrier:bool -> Insn.t -> node
(** Describe a plain instruction. Branches, jumps and PAL calls are
    automatically barriers. *)

val order : node array -> int array
(** [order nodes] returns a permutation [p] such that executing
    [nodes.(p.(0)), nodes.(p.(1)), ...] preserves all dependences.
    The permutation is a valid topological order of the dependence graph;
    ties favour earlier original positions, keeping the result
    deterministic. *)

val is_valid_order : node array -> int array -> bool
(** Whether a permutation respects every dependence — used by the tests and
    asserted internally. *)

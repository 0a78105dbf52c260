(** Translating linked object code into the symbolic form.

    The lifter leans on exactly the loader hints the paper names: LITERAL
    relocations mark the address loads, LITUSE relocations link each use
    back to its address load, GPDISP relocations identify the GP-setup
    pairs and their anchor addresses, and procedure descriptors give
    boundaries. Everything else decodes to concrete instructions, with
    PC-relative branches re-expressed against labels so that code can move
    without breaking displacements.

    Lifting runs in two phases so that the expensive half can be reused
    across links. {!lift_module} sees a single compilation unit: it
    checks that the text decodes and that procedures cover it, and folds
    relocations into a per-instruction hint, reading opcodes and register
    fields from the raw words — it decodes no instruction. Symbols are
    still names and labels are module-local, so the result depends only
    on the unit's content and the artifact store caches it under the
    unit's digest. {!instantiate} stitches such module lifts into a
    {!Symbolic.program} against a resolved world: it decodes each word
    once, straight into its node, resolves names to targets and
    renumbers labels and nodes program-wide. An incremental relink
    therefore re-lifts only the modules whose content changed. *)

type module_sym
(** The module-local symbolic form of one compilation unit: its text, a
    hint per instruction, and its labels and procedures. Plain immutable
    data, independent of the rest of the program; serializable with
    [Marshal]. *)

val format : string
(** Names the shape of {!module_sym}; it changes whenever that shape
    does. Stored lifts must be keyed by it as well as by the unit, so a
    payload of another format is never unmarshalled at this type. *)

val lift_module : Objfile.Cunit.t -> (module_sym, string) result
(** Lift one unit in isolation. Fails, naming the module and the byte
    offset, if the text is truncated or undecodable, is not fully covered
    by procedure symbols, a relocation is inconsistent, or a branch or
    GPDISP anchor leaves the module text. Never raises. *)

val instantiate :
  Linker.Resolve.t -> module_sym array -> (Symbolic.program, string) result
(** Build the program form from per-module lifts, one per world module in
    order. Fails if a lifted module does not match the corresponding
    world module's name and text (e.g. a stale cache entry) or a symbol
    fails to resolve. *)

val lift_world : Linker.Resolve.t -> (module_sym array, string) result
(** {!lift_module} over every module of the world, in order. *)

val run : Linker.Resolve.t -> (Symbolic.program, string) result
(** Lift every procedure of the resolved program:
    [lift_world |> instantiate]. *)

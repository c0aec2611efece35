(** Shared machinery for the project's static-analysis passes.

    [dmw_lint] (Parsetree, tools/lint) and the three Typedtree passes
    over the build's [.cmt] files — [dmw_taint] (tools/taint),
    [dmw_det] (tools/det) and [dmw_race] (tools/race) — share
    everything that is not the analysis itself:
    - {!Report}, {!Allow}, {!Fs} and {!Cli}: violation records and
      their human/JSON rendering, the comment-based escape hatch with
      stale detection, file-system walking and the CLI driver, used by
      all four passes;
    - {!Typed}: the lattice-independent chassis of the Typedtree
      passes — [.cmt] loading and unit naming, path keys, the
      application spine, the fixpoint driver, annotation hygiene and
      the final sort + dedup;
    - {!Flow}: the one forward may-taint evaluator behind [dmw_taint]
      and [dmw_det], driven by a {!Flow.policy} record that holds only
      what the two passes set differently.

    Keeping these here means the passes cannot drift apart in output
    schema, suppression semantics or propagation rules. *)

module Report : sig
  type violation = {
    file : string;  (** path as scanned *)
    line : int;  (** 1-based *)
    col : int;  (** 0-based *)
    rule : string;  (** rule identifier, e.g. ["R1"] or ["T-msg"] *)
    message : string;
  }

  val by_position : violation -> violation -> int
  (** Order by [file], then [line], then [col]. *)

  val human : violation list -> string
  (** One [file:line:col: [rule] message] line per violation. *)

  val to_json : violation list -> string
  (** JSON array of [{file, line, col, rule, message}] objects — the
      schema shared by every pass (see README "Static analysis"). *)

  val json_escape : string -> string
end

module Allow : sig
  (** The escape-hatch comment scanner. A pass declares its marker
      (["lint: allow "] or ["taint: declassify "]); an occurrence
      inside a comment binds a keyword and anchors at the line where
      the comment {e closes}, covering that line and the one below.
      Each allowance records whether it suppressed anything so that a
      stale escape hatch is itself a finding. *)

  type t = {
    line : int;  (** anchor: the line where the comment closes *)
    keyword : string;  (** raw keyword as written, unvalidated *)
    mutable used : bool;
  }

  val scan : marker:string -> string -> t list
  (** All occurrences of [marker<keyword>] in the source text, in
      file order. Keywords are [[a-zA-Z0-9-]+]. *)

  val claim : t list -> keyword_ok:(string -> bool) -> line:int -> bool
  (** Does some allowance whose keyword satisfies [keyword_ok] cover
      [line] (anchor on the line itself or the line above)? Every
      covering allowance is marked {!used}. *)

  val stale : t list -> t list
  (** Allowances that never suppressed anything, in file order. *)
end

module Fs : sig
  val collect : ext:string -> string -> string list
  (** Files under a root (file or directory, recursive, sorted) whose
      name ends in [ext]. *)

  val read_file : string -> string
  (** Raises [Sys_error]. *)

  val normalize : string -> string
  (** Backslashes to slashes, strip a leading ["./"]. *)

  val has_prefix : string -> string -> bool

  val find_substring : ?start:int -> string -> string -> int option
end

module Typed : sig
  (** The chassis every Typedtree pass runs on. *)

  type input = {
    cmt_path : string;
    rule_path : string option;
        (** project-relative path used for scoping and reporting;
            defaults to the [.cmt]'s recorded source file *)
    source : string option;
        (** source text for annotation scanning; defaults to reading
            [rule_path] (no annotations if unreadable) *)
  }

  val comps_of_name : string -> string list
  (** ["Dmw_crypto__Share.t"] and ["Dmw_crypto.Share.t"] both become
      [["Dmw_crypto"; "Share"; "t"]]. *)

  val key_of : unit_name:string -> Path.t -> (string * string) option
  (** The last two components of a path, [(module, name)]; a bare name
      is qualified with [unit_name]. *)

  val path_key : unit_name:string -> Path.t -> string option
  (** {!key_of} joined as ["Module.name"], the key summaries and cells
      are stored under. *)

  val unpoly : Types.type_expr -> Types.type_expr
  (** Peel [Tpoly] (record-field types, annotated [let]s). *)

  val type_last2 :
    unit_name:string -> Types.type_expr -> (string * string) option
  (** {!key_of} of a type constructor, [Tpoly] peeled. *)

  val owner : unit_name:string -> string list -> string
  (** The innermost module of a submodule chain, or [unit_name] at top
      level: the module a binding's summary is keyed under, matching
      how call sites name it ([Sub.f] from outside, [Unit.f]). *)

  val loc_line : Location.t -> int
  val loc_col : Location.t -> int

  val violation_at :
    file:string -> Location.t -> rule:string -> string -> Report.violation
  (** A violation at the start of a location. *)

  val sub_exprs : Typedtree.expression -> Typedtree.expression list
  (** The immediate subexpressions, in source order. *)

  val spine :
    unit_name:string ->
    Typedtree.expression ->
    Typedtree.expression
    * (Asttypes.arg_label * Typedtree.expression option) list
  (** Flatten an application into head and arguments, re-associating
      [@@] and [|>] so [x |> f a] reads as [f a x]. *)

  val head_key :
    unit_name:string -> Typedtree.expression -> (string * string) option
  (** {!key_of} of an identifier head, [None] for anything else. *)

  val iter_items :
    (string list -> Typedtree.structure_item -> unit) ->
    string list ->
    Typedtree.structure ->
    unit
  (** [iter_items f chain str] applies [f] to every item of [str] that
      is not a module binding, in source order, with the chain of
      enclosing submodules appended to [chain]; module bindings
      (recursive, constrained, functor bodies) are descended into. *)

  type loaded = {
    l_unit : string;  (** unit name with any dune library prefix dropped *)
    l_rule_path : string;
    l_structure : Typedtree.structure;
    l_allows : Allow.t list;
  }

  type annot = {
    marker : string;  (** e.g. ["det: "] *)
    keywords : string list;  (** the sanctioned keywords *)
    unknown_rule : string;  (** rule for an unknown keyword *)
    noun : string;  (** "unknown [noun] keyword" *)
    regime : string;  (** what a keyword names *)
    stale_rule : string;  (** rule for an annotation that excused nothing *)
    stale_reason : string;  (** why it is stale *)
  }

  val analyze :
    annot:annot ->
    changed:bool ref ->
    walk:(emit:bool -> out:Report.violation list ref -> loaded -> unit) ->
    ?finish:(Report.violation list ref -> unit) ->
    input list ->
    Report.violation list
  (** Load every input (units without an [.ml] implementation are
      skipped; an unreadable [.cmt] is a [cmt] violation), then call
      [walk ~emit:false] on each unit in rounds while a round sets
      [changed] (at most 12), then once more with [~emit:true]. A unit
      whose walk raises becomes a [cmt] violation. [finish] runs next,
      then the annotation checks; the result is sorted by position and
      deduplicated by (file, line, col, rule). *)
end

module Flow : sig
  (** The forward may-taint evaluator shared by [dmw_taint] and
      [dmw_det]. [eval] returns the set of classes an expression's
      value may carry and reports whenever a concretely-tainted value
      reaches a sink. Each top-level binding gets a summary — its
      return taint computed with parameters bound to the distinguished
      ["@param"] class, plus the sinks its parameters flow into —
      iterated to a fixpoint across all loaded units.

      The engine owns what is the same for both passes: constructing a
      [Messages.t] value is a sink, container higher-order functions
      pass element taint to their closures, sorts and [Hashtbl]
      iterations are recognized, predicates and conditions taint
      nothing. Everything else is the policy's. *)

  type key = string * string
  (** [(module, value)], as {!Typed.key_of}. *)

  type field =
    | Clean  (** projecting the field yields a clean value *)
    | Source of string  (** projecting the field yields this class *)
    | Neutral  (** the field carries the record's taint *)

  type policy = {
    annot : Typed.annot;  (** annotation marker, keywords, messages *)
    hint : string;  (** the remedy appended to every flow finding *)
    describe : string -> string;  (** class name to prose *)
    source : rule_path:string -> key -> string option;
        (** call returning a class, in the unit at [rule_path] *)
    cleaner : key -> bool;  (** call whose result is clean *)
    call_sink : key -> (string * string) option;  (** [(rule, sink)] *)
    message_rule : string;  (** rule for a [Messages.t] construction *)
    record_sink : key option -> (string * string) option;
        (** record types whose construction is a sink, by type key *)
    field :
      rule_path:string -> unit_name:string -> Types.label_description -> field;
        (** what projecting a record field yields, in the unit at
            [rule_path] *)
    order_class : string option;
        (** the class [Hashtbl] iteration adds to its closure and result,
            and the only class a sort removes *)
    admitted : (string * string) option;
        (** [(rule, class)]: the sinks of [rule] let [class] through *)
    use_site : Path.t -> (string * string) option;
        (** a call head that is a finding wherever it is applied,
            [(rule, message)] *)
  }

  val analyze : policy -> Typed.input list -> Report.violation list
end

module Cli : sig
  val main :
    tool:string ->
    ext:string ->
    default_roots:string list ->
    analyze:(string list -> Report.violation list) ->
    unit ->
    'a
  (** Shared driver: parse [--json] and root paths (default
      [default_roots], filtered for existence), exit 2 on a missing
      explicit path, collect files by [ext] (exit 2 when there are
      none, so a pass that scans nothing never reports clean), run
      [analyze] on them,
      print human output (with a [tool: N file(s), M violation(s)]
      summary on stderr) or the JSON report, and exit 1 iff there are
      violations. *)
end

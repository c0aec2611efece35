(** [dmw_taint] — a Typedtree secret-flow analysis for the DMW tree.

    The protocol's privacy claim (Theorem 10) is that a losing
    agent's bid leaves its machine only as Pedersen commitments and
    polynomial shares. [lib/core/privacy.ml] quantifies what the
    {e protocol} leaks; this pass checks what the {e implementation}
    could leak: it consumes the [.cmt] files the normal [dune build]
    produces and propagates a taint lattice over the typed AST, so it
    sees resolved paths and record types — strictly more precise than
    the Parsetree linter.

    {b Sources} (what is secret):
    - [prng] — [Dmw_bigint.Prng] draws and [Group.random_exponent],
      inside [lib/crypto/], [lib/poly/] and [lib/core/agent.ml]
      (elsewhere the PRNG drives public workloads, latencies and
      pseudonyms);
    - [share] — projections of the [Share.t] evaluation fields
      [e_at]/[f_at]/[g_at]/[h_at] (a share bundle may travel to its
      addressee, but its fields re-enter the secret domain the moment
      code takes them apart), everywhere except the wire codec;
    - [dealer] — the secret dealer state [e]/[f]/[g]/[h]/[tau] of
      [Bid_commitments.dealer] ([public] and [sigma] are clean by
      construction);
    - [bid] — the [bids] field of the agent state.

    {b Sinks} (where secrets must not arrive raw):
    - [T-msg] — applying a [Messages.t] constructor;
    - [T-wire] — [Frame.write] and [Engine.send];
    - [T-trace] — [Trace.record], [Audit.log], building a
      [Transcript.t];
    - [T-log] — [Printf]/[Format] printing (including [fprintf] to a
      caller-supplied formatter), and the observability surface:
      [Dmw_obs.Metrics.bump]/[set]/[observe], [Dmw_obs.Span.start]/
      [emit] and the [Dmw_obs.Export] writers — metric values, labels
      and span attributes end up in run reports.

    {b Declassifiers} (the only sanctioned crossings): results of
    [Pedersen.commit]/[blind_only], share evaluation
    ([Bid_commitments.share_for]), exponent encoding and degree
    resolution ([Exponent_resolution.*], [Degree_resolution.*],
    [Resolution.*]) are clean. Any other crossing must carry a
    [(* taint: declassify <kw>: reason *)] annotation, [<kw>] one of
    [pedersen], [share], [exponent], [disclosure] — naming the
    declassifier family that justifies it. An unknown keyword is a
    [T-annot] violation; an annotation that suppresses nothing is
    [stale-declassify] (the same rot-proofing as the linter's
    [stale-allow]).

    Propagation is intraprocedural with an interprocedural summary:
    every top-level binding gets a return-taint summary (with a
    distinguished parameter taint, so an argument laundered through a
    declassifier inside the callee does not taint the result) plus
    the set of sinks its parameters reach, iterated to a fixpoint
    over all loaded compilation units. *)

type violation = Analysis_kit.Report.violation = {
  file : string;  (** the project-relative source path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;
      (** ["T-msg"], ["T-wire"], ["T-trace"], ["T-log"], ["T-annot"],
          ["stale-declassify"], or ["cmt"] when a [.cmt] cannot be
          analyzed *)
  message : string;
}

type input = {
  cmt_path : string;
  rule_path : string option;
      (** project-relative path used for scoping and reporting;
          defaults to the [.cmt]'s recorded source file. Tests use it
          to analyze fixtures as if they lived under [lib/...]. *)
  source : string option;
      (** source text for annotation scanning; defaults to reading
          [rule_path] (no annotations if unreadable). *)
}

val analyze : input list -> violation list
(** Analyze a set of compilation units together (summaries are
    interprocedural across the set). Units whose [.cmt] has no
    implementation, or was generated (dune namespace modules), are
    skipped. Violations are sorted by position and deduplicated. *)

val human : violation list -> string
val to_json : violation list -> string

(* Typedtree secret-flow analysis over .cmt files: the policy that makes
   the shared Analysis_kit.Flow engine a privacy check. See taint.mli
   for the lattice (sources / sinks / declassifiers) and its mapping to
   the paper's privacy argument; DESIGN.md "Static privacy boundary"
   for the rationale.

   Parameters bound to the engine's ["@param"] class make a declassifier
   applied inside a callee visibly kill the dependence on the
   arguments, and parameter-sink summaries make a leaky helper flag its
   call sites.

   Deliberate approximations: conditions do not taint branches (no
   implicit flows — the protocol's control flow is public), local
   recursion is evaluated in one pass, and closures stored in records
   lose their parameter-sink summaries. All are documented
   under-approximations; the flows the privacy boundary cares about
   are direct data flows into messages, sockets, traces and logs. *)

module Report = Analysis_kit.Report
module Fs = Analysis_kit.Fs
module Flow = Analysis_kit.Flow

type violation = Report.violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type input = Analysis_kit.Typed.input = {
  cmt_path : string;
  rule_path : string option;
  source : string option;
}

let sanctioned_keywords = [ "pedersen"; "share"; "exponent"; "disclosure" ]

let describe cls =
  match cls with
  | "prng" -> "a raw PRNG draw"
  | "share" -> "a share evaluation field (e_at/f_at/g_at/h_at)"
  | "dealer" -> "secret dealer state (polynomial coefficients or tau)"
  | "bid" -> "an agent bid"
  | c -> c

(* ------------------------------------------------------------------ *)
(* Scoping                                                             *)
(* ------------------------------------------------------------------ *)

(* PRNG draws are secret where they seed polynomial coefficients and
   blindings; elsewhere (workloads, latencies, the public pseudonyms
   in params.ml) the same draws are public by design. Share fields
   are secret everywhere but the wire codec, which serializes a
   bundle already addressed to its recipient. *)
let prng_secret p =
  Fs.has_prefix "lib/crypto/" p
  || Fs.has_prefix "lib/poly/" p
  || p = "lib/core/agent.ml"

let share_fields_secret p = p <> "lib/core/codec.ml"
let bid_fields_secret p = Fs.has_prefix "lib/core/" p

(* ------------------------------------------------------------------ *)
(* Policy tables                                                       *)
(* ------------------------------------------------------------------ *)

let prng_draws =
  [ "next_int64"; "int"; "int_in_range"; "bool"; "float"; "bits"; "below";
    "in_range" ]

let source_fn ~rule_path (m, v) =
  if
    ((m = "Prng" && List.mem v prng_draws)
    || (m = "Group" && v = "random_exponent"))
    && prng_secret rule_path
  then Some "prng"
  else None

let declassifier (m, v) =
  match (m, v) with
  | "Pedersen", ("commit" | "blind_only") -> true
  | "Bid_commitments", "share_for" -> true
  | "Exponent_resolution", _ -> true
  | "Degree_resolution", _ -> true
  | ( "Resolution",
      ( "first_price" | "second_price" | "winner" | "aggregate"
      | "verify_lambda_psi" | "verify_lambda_psi_excl" | "verify_disclosure"
      | "verify_disclosure_hardened" ) ) ->
      true
  (* The privacy experiments' readback: degree resolution over pooled
     shares returns a resolved bid/degree — the measured quantity, not
     the shares themselves. *)
  | "Privacy", ("recover_bid" | "recover_bid_f" | "attack_dealer" | "attack_dealer_f")
    ->
      true
  | _ -> false

(* Predicates and size functions return public scalars. *)
let sanitizer (_, v) =
  List.mem v
    [ "equal"; "compare"; "length"; "byte_size"; "encoded_size";
      "element_bytes"; "exponent_bytes"; "num_bits"; "sign"; "tag"; "mem";
      "verify"; "not"; "ignore"; "for_all"; "exists"; "="; "<>"; "<"; ">";
      "<="; ">="; "=="; "!="; "&&"; "||" ]
  || Fs.has_prefix "verify_" v
  || Fs.has_prefix "check_" v
  || Fs.has_prefix "is_" v

let sink_fn (m, v) =
  match (m, v) with
  | "Frame", "write" -> Some ("T-wire", "Frame.write")
  | "Engine", "send" -> Some ("T-wire", "Engine.send")
  | "Trace", "record" -> Some ("T-trace", "Trace.record")
  | "Audit", "log" -> Some ("T-trace", "Audit.log")
  (* Observability is an export surface: metric values, labels and
     span attributes end up in run reports, so secrets must be
     declassified before they are recorded. *)
  | "Metrics", ("bump" | "set" | "observe") ->
      Some ("T-log", "Dmw_obs.Metrics." ^ v)
  | "Span", ("start" | "emit") -> Some ("T-log", "Dmw_obs.Span." ^ v)
  | "Export", ("json_lines" | "prometheus" | "write_file" | "dump") ->
      Some ("T-log", "Dmw_obs.Export." ^ v)
  | "Printf", ("printf" | "eprintf" | "fprintf" | "ifprintf") ->
      Some ("T-log", "Printf." ^ v)
  | "Format", ("printf" | "eprintf" | "fprintf") ->
      Some ("T-log", "Format." ^ v)
  | ( "Stdlib",
      ( "print_string" | "print_endline" | "print_int" | "print_float"
      | "prerr_string" | "prerr_endline" ) ) ->
      Some ("T-log", v)
  | _ -> None

let record_sink = function
  | Some ("Transcript", "t") -> Some ("T-trace", "a Transcript.t record")
  | _ -> None

(* A destructured share/dealer field is a source; dealer.public is
   clean. *)
let field_policy ~rule_path ~unit_name (lbl : Types.label_description) =
  let tname = Analysis_kit.Typed.type_last2 ~unit_name lbl.lbl_res in
  let type_named n = match tname with Some (_, t) -> t = n | None -> false in
  match lbl.lbl_name with
  | ("e_at" | "f_at" | "g_at" | "h_at")
    when share_fields_secret rule_path && type_named "t" ->
      Flow.Source "share"
  | ("e" | "f" | "g" | "h" | "tau") when type_named "dealer" -> Source "dealer"
  | ("public" | "sigma") when type_named "dealer" -> Clean
  | "bids" when bid_fields_secret rule_path && type_named "t" -> Source "bid"
  | _ -> Neutral

let policy =
  { Flow.annot =
      { marker = "taint: declassify ";
        keywords = sanctioned_keywords;
        unknown_rule = "T-annot";
        noun = "declassify";
        regime = "sanctioned declassifier family";
        stale_rule = "stale-declassify";
        stale_reason =
          "suppresses nothing here: the crossing it excused is gone" };
    hint =
      "route it through a sanctioned declassifier (Pedersen.commit, \
       Bid_commitments.share_for, Exponent_resolution/Degree_resolution) or \
       annotate the crossing: (* taint: declassify \
       <pedersen|share|exponent|disclosure>: reason *)";
    describe;
    source = source_fn;
    cleaner = (fun k -> sanitizer k || declassifier k);
    call_sink = sink_fn;
    message_rule = "T-msg";
    record_sink;
    field = field_policy;
    order_class = None;
    admitted = None;
    use_site = (fun _ -> None) }

let analyze = Flow.analyze policy
let human = Report.human
let to_json = Report.to_json

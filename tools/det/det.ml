(* Typedtree determinism-flow analysis over .cmt files: the policy that
   makes the shared Analysis_kit.Flow engine a replay check. See det.mli
   for the source/sink model and its mapping to the replay guarantees;
   DESIGN.md "Determinism boundary" for the rationale.

   The engine re-associates application spines through [@@] and [|>]
   so that the canonical [Hashtbl.fold ... |> List.sort cmp]
   normalization is recognized: a sort strips the [hashorder] class
   and nothing else.

   Deliberate approximations, documented here once: conditions do not
   taint branches (no implicit flows — a wall-clock read that only
   decides {e when} a deterministic message is sent does not make its
   payload nondeterministic, which is exactly the timeout regime the
   protocol relies on); values stored into containers by effectful
   calls (Hashtbl.add / Mailbox.push) lose their taint; closures
   stored in records lose their parameter-sink summaries; and a
   commutative reduction (min/max folds) over an unordered iteration
   is still flagged — normalize with a sort instead of asking the
   analysis to prove commutativity. *)

module Report = Analysis_kit.Report
module Fs = Analysis_kit.Fs

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

let sanctioned_keywords = [ "wallclock"; "timeout"; "obs-only"; "sorted" ]

let describe = function
  | "wallclock" -> "a wall-clock reading"
  | "hashorder" -> "a Hashtbl-iteration-order dependent value"
  | "physeq" -> "a physical-equality/address-derived value"
  | "env" -> "an environment read"
  | c -> c

(* The global [Stdlib.Random] family (including [Random.State]) in any
   spelling — the same surface the linter's syntactic R3 patrols. The
   repo's own seeded generator is [Prng] and never matches. *)
let is_random_path path =
  List.mem "Random" (Analysis_kit.Typed.comps_of_name (Path.name path))

(* ------------------------------------------------------------------ *)
(* Policy tables                                                       *)
(* ------------------------------------------------------------------ *)

let source_fn (m, v) =
  match (m, v) with
  | "Unix", ("gettimeofday" | "time" | "gmtime" | "localtime" | "mktime") ->
      Some "wallclock"
  | "Sys", "time" -> Some "wallclock"
  | "Sys", ("getenv" | "getenv_opt") -> Some "env"
  | "Unix", ("getenv" | "environment" | "getpid") -> Some "env"
  | "Obj", ("repr" | "magic" | "tag") -> Some "physeq"
  | "Stdlib", ("==" | "!=") -> Some "physeq"
  | "Hashtbl", "hash_param" -> Some "physeq"
  | _ -> None

(* Predicates and size functions return values that are functions of
   their (deterministic) inputs' contents, not of arrival order or
   clocks. Physical equality is deliberately NOT here. *)
let sanitizer (_, v) =
  List.mem v
    [ "equal"; "compare"; "length"; "mem"; "is_empty"; "hash"; "not";
      "ignore"; "="; "<>"; "<"; ">"; "<="; ">="; "&&"; "||" ]
  || Fs.has_prefix "is_" v

(* Determinism-critical sinks. [Fabric.broadcast_epoch] is deliberately
   not a sink — it carries only the epoch barrier, and the epoch
   counter is plain counting. *)
let sink_fn (m, v) =
  match (m, v) with
  | "Schedule", "create" -> Some ("D-consensus", "Schedule.create")
  | "Frame", "write" -> Some ("D-wire", "Frame.write")
  | "Codec", "encode" -> Some ("D-wire", "Codec.encode")
  | "Engine", ("send" | "publish") -> Some ("D-wire", "Engine." ^ v)
  | ("Fabric" | "Endpoint"), ("send" | "publish" | "post") ->
      Some ("D-wire", m ^ "." ^ v)
  | "Audit", "log" -> Some ("D-audit", "Audit.log")
  | "Dmw_wal", "append" -> Some ("D-wal", "Dmw_wal.append")
  | "Prng", "create" -> Some ("D-seed", "the Prng.create seed")
  | "Fault", "instantiate" -> Some ("D-seed", "the Fault.instantiate seed")
  | "Trace", "record" -> Some ("D-obs", "Trace.record")
  | "Metrics", ("bump" | "set" | "observe") ->
      Some ("D-obs", "Dmw_obs.Metrics." ^ v)
  | "Span", ("start" | "emit") -> Some ("D-obs", "Dmw_obs.Span." ^ v)
  | "Export", ("json_lines" | "prometheus" | "write_file" | "dump") ->
      Some ("D-obs", "Dmw_obs.Export." ^ v)
  | _ -> None

(* Record types whose construction is itself a sink: the unified
   result record is the consensus signature's carrier, and the backend
   info record feeds it. *)
let record_sink = function
  | Some ("Dmw_exec", ("result" as t)) | Some ("Dmw_exec", ("info" as t)) ->
      Some ("D-consensus", "the Dmw_exec." ^ t ^ " record")
  | _ -> None

let det_hint =
  "derive the value from (seed, params), normalize the iteration with \
   a sort, or annotate the sanctioned crossing: (* det: \
   <wallclock|timeout|obs-only|sorted>: reason *)"

let policy =
  { Analysis_kit.Flow.annot =
      { marker = "det: ";
        keywords = sanctioned_keywords;
        unknown_rule = "D-annot";
        noun = "det";
        regime = "sanctioned regime";
        stale_rule = "stale-det";
        stale_reason =
          "suppresses nothing here: the crossing it excused is gone" };
    hint = det_hint;
    describe;
    source = (fun ~rule_path:_ -> source_fn);
    cleaner = sanitizer;
    call_sink = sink_fn;
    message_rule = "D-wire";
    record_sink;
    field = (fun ~rule_path:_ ~unit_name:_ _ -> Neutral);
    (* The one sanctioned normalizer: a sort forgets the order the
       elements arrived in, and nothing else about them (sorted
       wall-clock readings are still wall-clock readings). *)
    order_class = Some "hashorder";
    (* The observability surface exists to record wall times; iteration
       order and the rest still corrupt reports and replay diffs. *)
    admitted = Some ("D-obs", "wallclock");
    (* Unseeded randomness is a use-site defect, not a flow: like the
       linter's R3, the draw itself is already unreproducible wherever
       its value lands — which is what lets D-random subsume R3 under
       lib/. *)
    use_site =
      (fun p ->
        if is_random_path p then
          Some
            ( "D-random",
              "call into the ambient Stdlib.Random state — draw from a \
               Dmw_bigint.Prng.t created from the run seed instead, or "
              ^ det_hint )
        else None) }

let analyze = Analysis_kit.Flow.analyze policy
let human = Report.human
let to_json = Report.to_json

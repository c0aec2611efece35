(* Shared machinery for the static-analysis passes: reporting, the
   escape-hatch scanner, file walking, the typed-pass chassis, the flow
   engine and the CLI driver. See analysis_kit.mli. *)

module Report = struct
  type violation = {
    file : string;
    line : int;
    col : int;
    rule : string;
    message : string;
  }

  let by_position a b =
    match compare a.file b.file with
    | 0 -> (
        match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
    | c -> c

  let human violations =
    String.concat ""
      (List.map
         (fun v ->
           Printf.sprintf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule
             v.message)
         violations)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_json violations =
    let obj v =
      Printf.sprintf
        "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
        (json_escape v.file) v.line v.col (json_escape v.rule)
        (json_escape v.message)
    in
    "[" ^ String.concat ",\n " (List.map obj violations) ^ "]\n"
end

module Fs = struct
  let normalize path =
    let path = String.map (fun c -> if c = '\\' then '/' else c) path in
    if String.length path >= 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path

  let has_prefix prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let find_substring ?(start = 0) haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub haystack i nn = needle then Some i
      else go (i + 1)
    in
    go start

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)

  let rec collect ~ext path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.concat_map (fun entry ->
             collect ~ext (Filename.concat path entry))
    else if Filename.check_suffix path ext then [ path ]
    else []
end

module Allow = struct
  type t = { line : int; keyword : string; mutable used : bool }

  let keyword_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-'

  (* The allowance is anchored to the line where the comment closes
     (and covers the line below it), so a multi-line justification
     still attaches to the code it precedes. *)
  let scan ~marker src =
    let line_of pos =
      let n = ref 1 in
      for i = 0 to pos - 1 do
        if src.[i] = '\n' then incr n
      done;
      !n
    in
    let allows = ref [] in
    let rec go pos =
      match Fs.find_substring ~start:pos src marker with
      | None -> ()
      | Some j ->
          let start = j + String.length marker in
          let stop = ref start in
          while !stop < String.length src && keyword_char src.[!stop] do
            incr stop
          done;
          let keyword = String.sub src start (!stop - start) in
          let anchor =
            match Fs.find_substring ~start:!stop src "*)" with
            | Some close -> close
            | None -> j
          in
          allows := { line = line_of anchor; keyword; used = false } :: !allows;
          go !stop
    in
    go 0;
    List.rev !allows

  let claim allows ~keyword_ok ~line =
    let hit = ref false in
    List.iter
      (fun a ->
        if keyword_ok a.keyword && (a.line = line || a.line = line - 1) then begin
          a.used <- true;
          hit := true
        end)
      allows;
    !hit

  let stale allows = List.filter (fun a -> not a.used) allows
end

module Typed = struct
  open Typedtree

  type input = {
    cmt_path : string;
    rule_path : string option;
    source : string option;
  }

  (* "Dmw_crypto__Share.t" and "Dmw_crypto.Share.t" both become
     ["Dmw_crypto"; "Share"; "t"]; a bare local name is qualified with
     the current unit so that agent.ml's own [t] reads as [Agent.t]. *)
  let comps_of_name s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
        Buffer.add_char buf '.';
        i := !i + 2
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    String.split_on_char '.' (Buffer.contents buf)

  let qualify ~unit_name = function
    | [ x ] -> [ unit_name; x ]
    | comps -> comps

  let key_of ~unit_name path =
    match List.rev (qualify ~unit_name (comps_of_name (Path.name path))) with
    | v :: m :: _ -> Some (m, v)
    | _ -> None

  let path_key ~unit_name path =
    Option.map (fun (m, v) -> m ^ "." ^ v) (key_of ~unit_name path)

  (* Record-field types and `let x : τ` annotations are wrapped in Tpoly
     in the typedtree; peel it before inspecting the constructor. *)
  let rec unpoly ty =
    match Types.get_desc ty with Types.Tpoly (t, _) -> unpoly t | _ -> ty

  let type_last2 ~unit_name ty =
    match Types.get_desc (unpoly ty) with
    | Types.Tconstr (p, _, _) -> key_of ~unit_name p
    | _ -> None

  let owner ~unit_name chain =
    match List.rev chain with [] -> unit_name | inner :: _ -> inner

  let loc_line (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

  let loc_col (loc : Location.t) =
    loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol

  let violation_at ~file loc ~rule message =
    { Report.file; line = loc_line loc; col = loc_col loc; rule; message }

  let sub_exprs e =
    let acc = ref [] in
    let it =
      { Tast_iterator.default_iterator with
        expr = (fun _ e' -> acc := e' :: !acc) }
    in
    Tast_iterator.default_iterator.expr it e;
    List.rev !acc

  (* Flatten an application spine, re-associating [@@] and [|>] so that
     [Hashtbl.fold f tbl [] |> List.sort cmp] and the inline
     [Fun.protect ~finally:... @@ fun () -> ...] idiom read as direct
     applications. *)
  let rec spine ~unit_name (e : expression) =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
        let h, a0 = spine ~unit_name f in
        let args = a0 @ args in
        match (head_key ~unit_name h, args) with
        | Some ("Stdlib", "@@"), [ (_, Some f'); x ]
        | Some ("Stdlib", "|>"), [ x; (_, Some f') ] ->
            let h', a' = spine ~unit_name f' in
            (h', a' @ [ x ])
        | _ -> (h, args))
    | _ -> (e, [])

  and head_key ~unit_name (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> key_of ~unit_name p
    | _ -> None

  (* Apply [f chain item] to every structure item outside a module
     binding, in source order; [chain] names the enclosing submodules. *)
  let rec iter_items f chain (str : structure) =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_module mb -> iter_module f chain mb
        | Tstr_recmodule mbs -> List.iter (iter_module f chain) mbs
        | _ -> f chain item)
      str.str_items

  and iter_module f chain mb =
    let chain =
      match mb.mb_id with Some id -> chain @ [ Ident.name id ] | None -> chain
    in
    let rec body me =
      match me.mod_desc with
      | Tmod_structure s -> iter_items f chain s
      | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> body me
      | _ -> ()
    in
    body mb.mb_expr

  type loaded = {
    l_unit : string;
    l_rule_path : string;
    l_structure : structure;
    l_allows : Allow.t list;
  }

  let unit_of_modname m =
    match Fs.find_substring m "__" with
    | None -> m
    | Some _ ->
        let rec last_start i acc =
          match Fs.find_substring ~start:i m "__" with
          | Some j -> last_start (j + 2) (j + 2)
          | None -> acc
        in
        let s = last_start 0 0 in
        String.sub m s (String.length m - s)

  let cmt_error file message =
    { Report.file; line = 1; col = 0; rule = "cmt"; message }

  let load ~marker errors input =
    match Cmt_format.read_cmt input.cmt_path with
    | exception exn ->
        errors :=
          cmt_error input.cmt_path
            ("cannot read cmt: " ^ Printexc.to_string exn)
          :: !errors;
        None
    | cmt -> (
        match cmt.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str -> (
            let src = cmt.Cmt_format.cmt_sourcefile in
            let rule_path =
              match input.rule_path with
              | Some p -> Some (Fs.normalize p)
              | None -> (
                  match src with
                  | Some f when Filename.check_suffix f ".ml" ->
                      Some (Fs.normalize f)
                  | _ -> None (* dune namespace/alias modules *))
            in
            match rule_path with
            | None -> None
            | Some rule_path ->
                let source =
                  match input.source with
                  | Some s -> Some s
                  | None -> (
                      try Some (Fs.read_file rule_path)
                      with Sys_error _ -> None)
                in
                let allows =
                  match source with
                  | Some s -> Allow.scan ~marker s
                  | None -> []
                in
                Some
                  { l_unit = unit_of_modname cmt.Cmt_format.cmt_modname;
                    l_rule_path = rule_path;
                    l_structure = str;
                    l_allows = allows })
        | _ -> None)

  type annot = {
    marker : string;
    keywords : string list;
    unknown_rule : string;
    noun : string;
    regime : string;
    stale_rule : string;
    stale_reason : string;
  }

  (* Annotation hygiene: unknown keywords are violations, and an
     annotation that excused nothing is itself stale. *)
  let annotation_findings annot out loaded =
    List.iter
      (fun lu ->
        List.iter
          (fun (a : Allow.t) ->
            let finding rule message =
              out :=
                { Report.file = lu.l_rule_path;
                  line = a.line;
                  col = 0;
                  rule;
                  message }
                :: !out
            in
            if not (List.mem a.keyword annot.keywords) then
              finding annot.unknown_rule
                (Printf.sprintf
                   "unknown %s keyword '%s': the annotation must name the %s \
                    — one of %s"
                   annot.noun a.keyword annot.regime
                   (String.concat ", " annot.keywords))
            else if not a.used then
              finding annot.stale_rule
                (Printf.sprintf "(* %s%s *) %s — delete the annotation"
                   annot.marker a.keyword annot.stale_reason))
          lu.l_allows)
      loaded

  let rec dedup = function
    | (a : Report.violation) :: b :: rest
      when a.file = b.file && a.line = b.line && a.col = b.col
           && a.rule = b.rule ->
        dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []

  let analyze ~annot ~changed ~walk ?(finish = fun _ -> ()) inputs =
    let errors = ref [] in
    let loaded = List.filter_map (load ~marker:annot.marker errors) inputs in
    let out = ref [] in
    let run ~emit lu =
      try walk ~emit ~out lu
      with exn ->
        errors :=
          cmt_error lu.l_rule_path
            ("analysis failed: " ^ Printexc.to_string exn)
          :: !errors
    in
    let rounds = ref 0 in
    while !changed && !rounds < 12 do
      changed := false;
      incr rounds;
      List.iter (run ~emit:false) loaded
    done;
    List.iter (run ~emit:true) loaded;
    finish out;
    annotation_findings annot out loaded;
    dedup (List.sort Report.by_position (!out @ !errors))
end

module Flow = struct
  open Typedtree
  module S = Set.Make (String)

  type key = string * string
  type field = Clean | Source of string | Neutral

  type policy = {
    annot : Typed.annot;
    hint : string;
    describe : string -> string;
    source : rule_path:string -> key -> string option;
    cleaner : key -> bool;
    call_sink : key -> (string * string) option;
    message_rule : string;
    record_sink : key option -> (string * string) option;
    field :
      rule_path:string -> unit_name:string -> Types.label_description -> field;
    order_class : string option;
    admitted : (string * string) option;
    use_site : Path.t -> (string * string) option;
  }

  let param_class = "@param"
  let param_taint = S.singleton param_class
  let concrete t = S.remove param_class t

  (* Container HOFs where the element taint must reach the closure's
     parameters and, for transforms, the result must be the closure's
     output only — so that projecting a clean field out of a secret
     record (dealer.public) actually cleans. *)
  let hof_transform v =
    List.mem v
      [ "map"; "mapi"; "map2"; "rev_map"; "filter_map"; "concat_map"; "init" ]

  let hof_other v =
    List.mem v
      [ "iter"; "iteri"; "iter2"; "fold_left"; "fold_right"; "filter";
        "partition"; "find_opt"; "find_map"; "sort"; "stable_sort" ]

  let is_hof (m, v) =
    (m = "Array" || m = "List") && (hof_transform v || hof_other v)

  let is_sort (m, v) =
    (m = "List" || m = "Array")
    && List.mem v [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

  (* Unordered-iteration entry points: the closure sees elements in hash
     order, and a folded result inherits that order. [Hashtbl.find] and
     friends are keyed lookups and stay outside. *)
  let is_unordered_iteration (m, v) =
    m = "Hashtbl"
    && List.mem v [ "fold"; "iter"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

  type summary = { ret : S.t; psinks : (string * string) list }

  type ctx = {
    policy : policy;
    unit_name : string;
    rule_path : string;
    allows : Allow.t list;
    summaries : (string, summary) Hashtbl.t;
    emit : bool;
    out : Report.violation list ref;
    changed : bool ref;
    mutable owner : string;  (* module the current item's summaries go under *)
    mutable psinks : (string * string) list;
  }

  let summary_find ctx key = Hashtbl.find_opt ctx.summaries key

  let field_of ctx lbl =
    ctx.policy.field ~rule_path:ctx.rule_path ~unit_name:ctx.unit_name lbl

  let summary_set ctx key s =
    match Hashtbl.find_opt ctx.summaries key with
    | None ->
        Hashtbl.replace ctx.summaries key s;
        if not (S.is_empty s.ret) || s.psinks <> [] then ctx.changed := true
    | Some old ->
        let ret = S.union old.ret s.ret in
        let psinks =
          old.psinks
          @ List.filter (fun p -> not (List.mem p old.psinks)) s.psinks
        in
        if
          (not (S.equal ret old.ret))
          || List.length psinks <> List.length old.psinks
        then begin
          Hashtbl.replace ctx.summaries key { ret; psinks };
          ctx.changed := true
        end

  type env = (string, S.t) Hashtbl.t

  let env_set (env : env) id t = Hashtbl.replace env (Ident.unique_name id) t

  let env_union (env : env) id t =
    let k = Ident.unique_name id in
    let old = Option.value (Hashtbl.find_opt env k) ~default:S.empty in
    Hashtbl.replace env k (S.union old t)

  let env_get (env : env) id =
    Option.value (Hashtbl.find_opt env (Ident.unique_name id)) ~default:S.empty

  (* Report at [loc] unless an annotation with a sanctioned keyword
     covers the line. *)
  let report ctx ~loc ~rule message =
    if ctx.emit then begin
      let line = Typed.loc_line loc in
      let keywords = ctx.policy.annot.keywords in
      if
        not
          (Allow.claim ctx.allows ~line ~keyword_ok:(fun kw ->
               List.mem kw keywords))
      then
        ctx.out :=
          Typed.violation_at ~file:ctx.rule_path loc ~rule message
          :: !(ctx.out)
    end

  (* A concretely-tainted value at a sink is a violation (suppressible
     by an annotation); a parameter-tainted one becomes a parameter sink
     of the enclosing top-level binding so a leaky helper flags its call
     sites. A sink may admit classes its rule exists to record. *)
  let sink_check ctx ?via ~loc ~rule ~sink taint =
    let taint =
      match ctx.policy.admitted with
      | Some (r, cls) when r = rule -> S.remove cls taint
      | _ -> taint
    in
    let conc = concrete taint in
    if not (S.is_empty conc) then begin
      let via_s =
        match via with None -> "" | Some f -> Printf.sprintf " via %s" f
      in
      report ctx ~loc ~rule
        (Printf.sprintf "%s reaches %s%s — %s"
           (String.concat ", " (List.map ctx.policy.describe (S.elements conc)))
           sink via_s ctx.policy.hint)
    end
    else if S.mem param_class taint && not (List.mem (rule, sink) ctx.psinks)
    then ctx.psinks <- (rule, sink) :: ctx.psinks

  let subst base args =
    if S.mem param_class base then S.union (S.remove param_class base) args
    else base

  let iter_record_fields f p =
    let it =
      { Tast_iterator.default_iterator with
        pat =
          (fun (type k) it (q : k general_pattern) ->
            (match q.pat_desc with
            | Tpat_record (fields, _) ->
                List.iter (fun (_, lbl, sub) -> f lbl sub) fields
            | _ -> ());
            Tast_iterator.default_iterator.pat it q) }
    in
    it.pat it p

  (* Bind every variable of [p] to the scrutinee taint [t], then refine
     record sub-patterns through the field policy. *)
  let bind_pattern : type k. ctx -> env -> k general_pattern -> S.t -> unit =
   fun ctx env p t ->
    List.iter (fun id -> env_set env id t) (pat_bound_idents p);
    iter_record_fields
      (fun lbl sub ->
        match field_of ctx lbl with
        | Source cls ->
            List.iter
              (fun id -> env_set env id (S.add cls t))
              (pat_bound_idents sub)
        | Clean ->
            List.iter (fun id -> env_set env id S.empty) (pat_bound_idents sub)
        | Neutral -> ())
      p

  let rec eval ctx env (e : expression) : S.t =
    match e.exp_desc with
    | Texp_constant _ -> S.empty
    | Texp_ident (path, _, _) ->
        Option.value (fst (lookup ctx env path)) ~default:S.empty
    | Texp_let (rf, vbs, body) ->
        process_bindings ctx env rf vbs;
        eval ctx env body
    | Texp_function { cases; _ } -> eval_cases ctx env ~ptaint:param_taint cases
    | Texp_apply _ -> eval_apply ctx env e
    | Texp_match (scrut, cases, _) ->
        let st = eval ctx env scrut in
        eval_cases ctx env ~ptaint:st cases
    | Texp_try (body, cases) ->
        S.union (eval ctx env body) (eval_cases ctx env ~ptaint:S.empty cases)
    | Texp_tuple es | Texp_array es -> eval_all ctx env es
    | Texp_construct (_, cstr, args) ->
        let t = eval_all ctx env args in
        if
          Typed.type_last2 ~unit_name:ctx.unit_name cstr.Types.cstr_res
          = Some ("Messages", "t")
        then begin
          sink_check ctx ~loc:e.exp_loc ~rule:ctx.policy.message_rule
            ~sink:("the Messages." ^ cstr.Types.cstr_name ^ " constructor")
            t;
          (* Constructing the message is the boundary: either it was
             clean, it was annotated, or it was reported — in every case
             the envelope itself travels. *)
          S.empty
        end
        else t
    | Texp_record { fields; extended_expression; _ } -> (
        let base =
          match extended_expression with
          | Some b -> eval ctx env b
          | None -> S.empty
        in
        let t =
          Array.fold_left
            (fun acc (_, def) ->
              match def with
              | Overridden (_, x) -> S.union acc (eval ctx env x)
              | _ -> acc)
            base fields
        in
        match
          ctx.policy.record_sink
            (Typed.type_last2 ~unit_name:ctx.unit_name e.exp_type)
        with
        | Some (rule, sink) ->
            sink_check ctx ~loc:e.exp_loc ~rule ~sink t;
            S.empty
        | None -> t)
    | Texp_field (r, _, lbl) -> (
        let rt = eval ctx env r in
        match field_of ctx lbl with
        | Clean -> S.empty
        | Source cls -> S.add cls rt
        | Neutral -> rt)
    | Texp_setfield (r, _, _, v) ->
        let vt = eval ctx env v in
        (match r.exp_desc with
        | Texp_ident (Path.Pident id, _, _) -> env_union env id vt
        | _ -> ignore (eval ctx env r));
        S.empty
    | Texp_ifthenelse (c, a, b) ->
        ignore (eval ctx env c);
        let ta = eval ctx env a in
        let tb = match b with Some b -> eval ctx env b | None -> S.empty in
        S.union ta tb
    | Texp_sequence (a, b) ->
        ignore (eval ctx env a);
        eval ctx env b
    | Texp_open (_, body) -> eval ctx env body
    | _ -> eval_all ctx env (Typed.sub_exprs e)

  and eval_all ctx env es =
    List.fold_left (fun acc x -> S.union acc (eval ctx env x)) S.empty es

  (* A local's taint, else the summary of the binding [path] names. *)
  and lookup ctx env path =
    match path with
    | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
        (Some (env_get env id), None)
    | _ -> (
        match
          Option.bind
            (Typed.path_key ~unit_name:ctx.unit_name path)
            (summary_find ctx)
        with
        | Some s -> (Some s.ret, Some s)
        | None -> (None, None))

  and eval_apply ctx env (e : expression) =
    let h, args = Typed.spine ~unit_name:ctx.unit_name e in
    let policy = ctx.policy in
    match
      match h.exp_desc with
      | Texp_ident (p, _, _) -> policy.use_site p
      | _ -> None
    with
    | Some (rule, message) ->
        List.iter
          (fun (_, a) -> Option.iter (fun a -> ignore (eval ctx env a)) a)
          args;
        report ctx ~loc:e.exp_loc ~rule message;
        S.empty
    | None -> (
        let fkey = Typed.head_key ~unit_name:ctx.unit_name h in
        let arg_exprs = List.filter_map snd args in
        let is_closure a =
          match a.exp_desc with Texp_function _ -> true | _ -> false
        in
        let closures, plain = List.partition is_closure arg_exprs in
        let plain_taint = eval_all ctx env plain in
        (* Assignment through a ref keeps the cell's taint current. *)
        (match (fkey, arg_exprs) with
        | ( Some (_, ":="),
            [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ }; v ] ) ->
            env_union env id (eval ctx env v)
        | _ -> ());
        let iteration =
          match fkey with
          | Some k when is_unordered_iteration k -> policy.order_class
          | _ -> None
        in
        let hof =
          match fkey with Some k -> is_hof k && closures <> [] | None -> false
        in
        let closure_taint =
          List.fold_left
            (fun acc c ->
              let ptaint =
                match iteration with
                | Some cls -> S.add cls plain_taint
                | None -> if hof then plain_taint else param_taint
              in
              match c.exp_desc with
              | Texp_function { cases; _ } ->
                  S.union acc (eval_cases ctx env ~ptaint cases)
              | _ -> S.union acc (eval ctx env c))
            S.empty closures
        in
        let all_args = S.union plain_taint closure_taint in
        let stripped =
          match fkey with
          | Some k when is_sort k -> policy.order_class
          | _ -> None
        in
        let source =
          Option.bind fkey (policy.source ~rule_path:ctx.rule_path)
        in
        let call_sink = Option.bind fkey policy.call_sink in
        match fkey with
        | Some _ when Option.is_some stripped ->
            S.remove (Option.get stripped) all_args
        | Some k when policy.cleaner k -> S.empty
        | Some _ when Option.is_some source -> S.singleton (Option.get source)
        | Some _ when Option.is_some call_sink ->
            let rule, sink = Option.get call_sink in
            sink_check ctx ~loc:e.exp_loc ~rule ~sink all_args;
            S.empty
        | Some _ when Option.is_some iteration ->
            S.add (Option.get iteration) all_args
        | Some (_, v) when hof ->
            if hof_transform v then closure_taint
            else S.union plain_taint closure_taint
        | _ ->
            let base, smry =
              match h.exp_desc with
              | Texp_ident (p, _, _) ->
                  let t, smry = lookup ctx env p in
                  (Option.value t ~default:param_taint, smry)
              | _ -> (S.add param_class (eval ctx env h), None)
            in
            (match smry with
            | Some s when s.psinks <> [] ->
                let via =
                  match fkey with Some (m, v) -> m ^ "." ^ v | None -> "?"
                in
                List.iter
                  (fun (rule, sink) ->
                    sink_check ctx ~via ~loc:e.exp_loc ~rule ~sink all_args)
                  s.psinks
            | _ -> ());
            subst base all_args)

  and eval_cases : 'k. ctx -> env -> ptaint:S.t -> 'k case list -> S.t =
   fun ctx env ~ptaint cases ->
    List.fold_left
      (fun acc c ->
        bind_pattern ctx env c.c_lhs ptaint;
        (match c.c_guard with Some g -> ignore (eval ctx env g) | None -> ());
        S.union acc (eval ctx env c.c_rhs))
      S.empty cases

  (* A recursive group sees its members' summaries from the previous
     round. *)
  and bind_recursive ctx env vbs =
    List.iter
      (fun vb ->
        List.iter
          (fun id ->
            let key = ctx.owner ^ "." ^ Ident.name id in
            let t =
              match summary_find ctx key with
              | Some s -> s.ret
              | None -> S.empty
            in
            env_set env id t)
          (pat_bound_idents vb.vb_pat))
      vbs

  and process_bindings ctx env rf vbs =
    if rf = Recursive then bind_recursive ctx env vbs;
    List.iter
      (fun vb ->
        let t = eval ctx env vb.vb_expr in
        bind_pattern ctx env vb.vb_pat t)
      vbs

  let process_structure ctx env str =
    Typed.iter_items
      (fun chain item ->
        (* Key summaries as call sites name them: [Sub.f] from outside
           the submodule, [Unit.f] at top level. *)
        ctx.owner <- Typed.owner ~unit_name:ctx.unit_name chain;
        match item.str_desc with
        | Tstr_value (rf, vbs) ->
            if rf = Recursive then bind_recursive ctx env vbs;
            List.iter
              (fun vb ->
                ctx.psinks <- [];
                let t = eval ctx env vb.vb_expr in
                bind_pattern ctx env vb.vb_pat t;
                List.iter
                  (fun id ->
                    let key = ctx.owner ^ "." ^ Ident.name id in
                    summary_set ctx key
                      { ret = env_get env id; psinks = ctx.psinks })
                  (pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_eval (e, _) ->
            ctx.psinks <- [];
            ignore (eval ctx env e)
        | _ -> ())
      [] str

  let analyze policy inputs =
    let summaries = Hashtbl.create 256 in
    let changed = ref true in
    Typed.analyze ~annot:policy.annot ~changed inputs
      ~walk:(fun ~emit ~out (lu : Typed.loaded) ->
        let ctx =
          { policy;
            unit_name = lu.l_unit;
            rule_path = lu.l_rule_path;
            allows = lu.l_allows;
            summaries;
            emit;
            out;
            changed;
            owner = lu.l_unit;
            psinks = [] }
        in
        process_structure ctx (Hashtbl.create 128) lu.l_structure)
end

module Cli = struct
  let main ~tool ~ext ~default_roots ~analyze () =
    let json = ref false in
    let paths = ref [] in
    let usage =
      Printf.sprintf "%s [--json] [path ...]\nDefault paths: %s" tool
        (String.concat " " default_roots)
    in
    Arg.parse
      [ ("--json", Arg.Set json, " machine-readable JSON output") ]
      (fun p -> paths := p :: !paths)
      usage;
    let roots =
      match List.rev !paths with
      | [] -> List.filter Sys.file_exists default_roots
      | roots -> roots
    in
    let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
    List.iter (Printf.eprintf "%s: no such path: %s\n" tool) missing;
    if missing <> [] then exit 2;
    let files = List.concat_map (Fs.collect ~ext) roots in
    (* Scanning nothing is a usage error, not a clean report: run from
       the source root a typed pass finds no .cmt files at all. *)
    if files = [] then begin
      Printf.eprintf "%s: no %s files under %s\n" tool ext
        (String.concat " " roots);
      exit 2
    end;
    let violations = analyze files in
    if !json then print_string (Report.to_json violations)
    else begin
      print_string (Report.human violations);
      Printf.eprintf "%s: %d file(s), %d violation(s)\n" tool
        (List.length files) (List.length violations)
    end;
    exit (if violations = [] then 0 else 1)
end

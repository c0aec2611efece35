(* Typedtree lockset analysis over .cmt files. See race.mli for the
   cell/lock model and its mapping to the multicore roadmap item;
   DESIGN.md "Concurrency discipline" for the rationale.

   The pass first inventories every mutable cell declared at module
   scope or as a record field (mutable fields and shared containers:
   ref / Hashtbl / Queue / Buffer / array / bytes / Atomic). It then
   walks every expression carrying the set of locks lexically held —
   entered through the blessed [Mutex_util.with_lock] wrapper or the
   equivalent inline [Mutex.lock l; Fun.protect ~finally:unlock]
   shape — and records each cell access together with that lockset.
   Functions get interprocedural summaries in taint's @param style:
   which locks they acquire (possibly a parameter), which of their
   parameters they invoke under which locks, and the meet of the
   locksets their callers hold (so a helper only ever called under a
   lock inherits that guarantee). Summaries iterate to a fixpoint.

   Classification per cell: Atomic.t cells are safe by construction;
   a cell whose accesses share a non-empty lockset intersection is
   guarded; a cell covered by a [(* race: confined <kw>: reason *)]
   annotation is confined; anything else is a violation
   (R-unguarded when some access holds no lock at all, R-lockset
   when every access is locked but no common lock exists). Nested
   acquisitions produce lock-order edges; a cycle is R-order. Bare
   [Mutex.lock]/[unlock] outside the recognized wrapper shape is
   R-bare. Annotation hygiene mirrors taint: unknown keywords are
   R-annot, annotations that excuse nothing are stale-confine.

   Deliberate under-approximations, documented here once: function-
   local refs that never reach module scope are not inventoried
   (confinement by scope); module-initialization effects happen
   before any thread is spawned and are not counted as accesses;
   lock identity is per-(type, field) or per-global, not
   per-instance — the standard Eraser-style abstraction. *)

open Typedtree
module Report = Analysis_kit.Report
module Allow = Analysis_kit.Allow
module Typed = Analysis_kit.Typed

type violation = Report.violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type input = Typed.input = {
  cmt_path : string;
  rule_path : string option;
  source : string option;
}

let confined_keywords =
  [ "owner"; "router"; "agent"; "sim"; "extern"; "readonly" ]

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

type lock =
  | LGlobal of string * string  (* module-scope mutex: (Unit, name) *)
  | LField of string * string * string  (* (Module, type, field) *)
  | LLocal of string  (* let-bound or unresolvable: unique name *)
  | LParam of int  (* callee-relative: the lock is parameter #i *)

module LS = Set.Make (struct
  type t = lock

  let compare = Stdlib.compare
end)

let lock_name = function
  | LGlobal (m, v) -> m ^ "." ^ v
  | LField (m, t, f) -> m ^ "." ^ t ^ "." ^ f
  | LLocal s -> "local:" ^ s
  | LParam i -> "param#" ^ string_of_int i

let concrete ls = LS.filter (function LParam _ -> false | _ -> true) ls

(* ------------------------------------------------------------------ *)
(* Paths and types                                                     *)
(* ------------------------------------------------------------------ *)

(* The shared containers whose values constitute mutable state. A
   type-based test is robust to how the value is built. *)
let container_of ty =
  match Types.get_desc (Typed.unpoly ty) with
  | Types.Tconstr (p, _, _) -> (
      match Typed.comps_of_name (Path.name p) with
      | comps -> (
          match List.rev comps with
          | "ref" :: _ -> Some "ref"
          | "array" :: _ -> Some "array"
          | "bytes" :: _ -> Some "bytes"
          | "t" :: m :: _
            when List.mem m [ "Hashtbl"; "Queue"; "Buffer"; "Atomic" ] ->
              Some (m ^ ".t")
          | _ -> None))
  | _ -> None

let loc_str file (loc : Location.t) =
  Printf.sprintf "%s:%d:%d" file (Typed.loc_line loc) (Typed.loc_col loc)

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type access = {
  a_file : string;
  a_line : int;
  a_ls : LS.t;  (* locks held lexically at the access *)
  a_fn : string option;  (* enclosing binding, for caller guarantees *)
}

type cell = {
  cl_name : string;  (* display: "Metrics.registry", "Timer.t.thread" *)
  cl_file : string;
  cl_line : int;
  cl_col : int;
  cl_container : string;
  cl_atomic : bool;
  cl_anchors : int list;  (* lines an annotation may cover: own, type *)
  cl_allows : Allow.t list;  (* the declaring unit's annotations *)
  mutable cl_accesses : access list;
}

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  mutable acquires : LS.t;  (* locks taken inside; may contain LParam *)
  mutable invokes : (int * LS.t) list;  (* param #i runs under locks *)
  mutable guard : LS.t option;  (* meet over call sites; None = top *)
}

type tables = {
  summaries : (string, summary) Hashtbl.t;
  cells : (string, cell) Hashtbl.t;  (* primary key -> cell *)
  cell_alias : (string, string) Hashtbl.t;  (* alias key -> primary *)
  cell_order : string list ref;  (* registration order for reporting *)
  edges : (lock * lock, string * int * int) Hashtbl.t;
  changed : bool ref;
}

let summary_for tb key =
  match Hashtbl.find_opt tb.summaries key with
  | Some s -> s
  | None ->
      let s = { acquires = LS.empty; invokes = []; guard = None } in
      Hashtbl.replace tb.summaries key s;
      s

let add_acquires tb s l =
  if not (LS.mem l s.acquires) then begin
    s.acquires <- LS.add l s.acquires;
    tb.changed := true
  end

let add_invoke tb s idx locks =
  match List.assoc_opt idx s.invokes with
  | None ->
      s.invokes <- (idx, locks) :: s.invokes;
      tb.changed := true
  | Some old ->
      let met = LS.inter old locks in
      if not (LS.equal met old) then begin
        s.invokes <- (idx, met) :: List.remove_assoc idx s.invokes;
        tb.changed := true
      end

(* Call-site guarantee: the meet over every call site of the locks the
   caller provably holds. [LParam] entries are dropped — a parameter
   lock is only a guarantee relative to the callee that binds it. *)
let meet_guard tb s locks =
  let locks = concrete locks in
  match s.guard with
  | None ->
      s.guard <- Some locks;
      tb.changed := true
  | Some g ->
      let met = LS.inter g locks in
      if not (LS.equal met g) then begin
        s.guard <- Some met;
        tb.changed := true
      end

let guard_of tb key =
  match Hashtbl.find_opt tb.summaries key with
  | Some { guard = Some g; _ } -> g
  | _ -> LS.empty

(* ------------------------------------------------------------------ *)
(* Per-unit context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  unit_name : string;
  rule_path : string;
  allows : Allow.t list;
  tb : tables;
  emit : bool;
  out : Report.violation list ref;
  (* same-unit ident resolution: unique ident name -> (owner, name) *)
  toplevel : (string, string * string) Hashtbl.t;
  (* unique ident name -> primary cell key, for same-unit references *)
  cell_ident : (string, string) Hashtbl.t;
  (* parameters of the binding currently being summarized *)
  params : (string, int) Hashtbl.t;
  (* Mutex.unlock sites excused by a recognized wrapper shape *)
  sanctioned : (string, unit) Hashtbl.t;
  mutable fn_key : string option;
}

type st = { ls : LS.t; in_fn : bool }

let push ctx ~loc ~rule ~message =
  ctx.out :=
    Typed.violation_at ~file:ctx.rule_path loc ~rule message :: !(ctx.out)

let self_guard ctx =
  match ctx.fn_key with Some k -> guard_of ctx.tb k | None -> LS.empty

(* ------------------------------------------------------------------ *)
(* Cell registration and access recording                              *)
(* ------------------------------------------------------------------ *)

let display_owner ~unit_name chain =
  match chain with [] -> unit_name | _ -> String.concat "." chain

(* Register the cell [suffix] ("name" or "type.field") declared at [loc]
   inside the submodule [chain]: keyed under the innermost module, with
   the unit-qualified key as an alias. *)
let register_cell ctx chain ~suffix ~ident ~loc ~anchors ~container ~atomic =
  let primary = Typed.owner ~unit_name:ctx.unit_name chain ^ "." ^ suffix in
  if not (Hashtbl.mem ctx.tb.cells primary) then begin
    Hashtbl.replace ctx.tb.cells primary
      { cl_name = display_owner ~unit_name:ctx.unit_name chain ^ "." ^ suffix;
        cl_file = ctx.rule_path;
        cl_line = Typed.loc_line loc;
        cl_col = Typed.loc_col loc;
        cl_container = container;
        cl_atomic = atomic;
        cl_anchors = anchors;
        cl_allows = ctx.allows;
        cl_accesses = [] };
    ctx.tb.cell_order := primary :: !(ctx.tb.cell_order);
    let alias = ctx.unit_name ^ "." ^ suffix in
    if chain <> [] && not (Hashtbl.mem ctx.tb.cell_alias alias) then
      Hashtbl.replace ctx.tb.cell_alias alias primary
  end;
  Option.iter (fun u -> Hashtbl.replace ctx.cell_ident u primary) ident

let cell_by_key tb key =
  match Hashtbl.find_opt tb.cells key with
  | Some c -> Some c
  | None -> (
      match Hashtbl.find_opt tb.cell_alias key with
      | Some p -> Hashtbl.find_opt tb.cells p
      | None -> None)

let record_access ctx st loc cell =
  if ctx.emit && st.in_fn then
    cell.cl_accesses <-
      { a_file = ctx.rule_path;
        a_line = Typed.loc_line loc;
        a_ls = st.ls;
        a_fn = ctx.fn_key }
      :: cell.cl_accesses

let cell_of_path ctx path =
  match path with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.cell_ident (Ident.unique_name id) with
      | Some p -> Hashtbl.find_opt ctx.tb.cells p
      | None -> None)
  | _ ->
      Option.bind
        (Typed.path_key ~unit_name:ctx.unit_name path)
        (cell_by_key ctx.tb)

let ident_access ctx st loc path =
  Option.iter (record_access ctx st loc) (cell_of_path ctx path)

let field_access ctx st loc (lbl : Types.label_description) =
  match Typed.type_last2 ~unit_name:ctx.unit_name lbl.lbl_res with
  | Some (m, t) ->
      Option.iter
        (record_access ctx st loc)
        (cell_by_key ctx.tb (m ^ "." ^ t ^ "." ^ lbl.lbl_name))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Lock normalization and order edges                                  *)
(* ------------------------------------------------------------------ *)

let norm_lock ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      let u = Ident.unique_name id in
      match Hashtbl.find_opt ctx.params u with
      | Some i -> LParam i
      | None -> (
          match Hashtbl.find_opt ctx.toplevel u with
          | Some (m, v) -> LGlobal (m, v)
          | None -> LLocal u))
  | Texp_ident (path, _, _) -> (
      match Typed.key_of ~unit_name:ctx.unit_name path with
      | Some (m, v) -> LGlobal (m, v)
      | None -> LLocal (loc_str ctx.rule_path e.exp_loc))
  | Texp_field (_, _, lbl) -> (
      match Typed.type_last2 ~unit_name:ctx.unit_name lbl.lbl_res with
      | Some (m, t) -> LField (m, t, lbl.lbl_name)
      | None -> LLocal (loc_str ctx.rule_path e.exp_loc))
  | _ -> LLocal (loc_str ctx.rule_path e.exp_loc)

let note_edges ctx st loc acquired =
  if ctx.emit then
    LS.iter
      (fun held ->
        LS.iter
          (fun a ->
            if held <> a && not (Hashtbl.mem ctx.tb.edges (held, a)) then
              Hashtbl.replace ctx.tb.edges (held, a)
                (ctx.rule_path, Typed.loc_line loc, Typed.loc_col loc))
          (concrete acquired))
      (concrete st.ls)

let note_acquire ctx st loc l =
  (match ctx.fn_key with
  | Some k -> add_acquires ctx.tb (summary_for ctx.tb k) l
  | None -> ());
  note_edges ctx st loc (LS.singleton l)

(* ------------------------------------------------------------------ *)
(* Expression walk                                                     *)
(* ------------------------------------------------------------------ *)

let all_exprs e =
  let acc = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun it e' ->
          acc := e' :: !acc;
          Tast_iterator.default_iterator.expr it e') }
  in
  it.expr it e;
  List.rev !acc

let is_apply_of ctx key (e : expression) =
  match e.exp_desc with
  | Texp_apply _ ->
      let h, args = Typed.spine ~unit_name:ctx.unit_name e in
      if Typed.head_key ~unit_name:ctx.unit_name h = Some key then Some args
      else None
  | _ -> None

(* [Mutex.lock l] as the head of a sequence. *)
let lock_acquire ctx (e : expression) =
  match is_apply_of ctx ("Mutex", "lock") e with
  | Some [ (_, Some l) ] -> Some (norm_lock ctx l)
  | _ -> None

(* Does [body] contain [Fun.protect ~finally:g ...] with [Mutex.unlock
   l'] in [g], [l'] the lock just taken?  If so the acquisition is the
   exception-safe wrapper shape and the unlock site is excused. *)
let find_protect_unlock ctx body l =
  let found = ref false in
  List.iter
    (fun e ->
      match is_apply_of ctx ("Fun", "protect") e with
      | Some args -> (
          match
            List.find_opt
              (fun (lab, _) -> lab = Asttypes.Labelled "finally")
              args
          with
          | Some (_, Some g) ->
              List.iter
                (fun e' ->
                  match is_apply_of ctx ("Mutex", "unlock") e' with
                  | Some [ (_, Some l') ] when norm_lock ctx l' = l ->
                      found := true;
                      Hashtbl.replace ctx.sanctioned
                        (loc_str ctx.rule_path e'.exp_loc) ()
                  | _ -> ())
                (all_exprs g)
          | _ -> ())
      | None -> ())
    (all_exprs body);
  !found

(* [e] is one of the current binding's parameters: record that the
   binding invokes it under [ls]. *)
let invokes_param ctx ls (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _)
    when Hashtbl.mem ctx.params (Ident.unique_name id) ->
      Option.iter
        (fun k ->
          add_invoke ctx.tb (summary_for ctx.tb k)
            (Hashtbl.find ctx.params (Ident.unique_name id))
            ls)
        ctx.fn_key;
      true
  | _ -> false

(* [e] names a known function handed to a callee, which makes the call
   a call site for the function's guarantee. *)
let passes_known_fn ctx st (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) when cell_of_path ctx path = None -> (
      match Typed.path_key ~unit_name:ctx.unit_name path with
      | Some k when Hashtbl.mem ctx.tb.summaries k ->
          if st.in_fn then
            meet_guard ctx.tb (summary_for ctx.tb k)
              (LS.union st.ls (self_guard ctx));
          true
      | _ -> false)
  | _ -> false

let bare ctx loc what =
  if ctx.emit then
    push ctx ~loc ~rule:"R-bare"
      ~message:
        (Printf.sprintf
           "bare %s outside the exception-safe wrapper shape — use \
            Mutex_util.with_lock (or Mutex.lock l; Fun.protect \
            ~finally:(fun () -> Mutex.unlock l))"
           what)

let rec eval ctx st (e : expression) =
  match e.exp_desc with
  | Texp_constant _ -> ()
  | Texp_ident (path, _, _) -> ident_access ctx st e.exp_loc path
  | Texp_field (r, _, lbl) ->
      eval ctx st r;
      field_access ctx st e.exp_loc lbl
  | Texp_setfield (r, _, lbl, v) ->
      eval ctx st r;
      eval ctx st v;
      field_access ctx st e.exp_loc lbl
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          (match c.c_guard with
          | Some g -> eval ctx { st with in_fn = true } g
          | None -> ());
          eval ctx { st with in_fn = true } c.c_rhs)
        cases
  | Texp_sequence (a, b) -> (
      match lock_acquire ctx a with
      | Some l ->
          if find_protect_unlock ctx b l then begin
            note_acquire ctx st a.exp_loc l;
            eval ctx { st with ls = LS.add l st.ls } b
          end
          else begin
            bare ctx a.exp_loc "Mutex.lock";
            eval ctx st b
          end
      | None ->
          eval ctx st a;
          eval ctx st b)
  | Texp_apply _ -> eval_apply ctx st e
  | _ -> List.iter (eval ctx st) (Typed.sub_exprs e)

(* A value that some callee will invoke under [locks]: a literal
   closure runs its body there; one of our own parameters records an
   invokes entry; a known function records a call-site guarantee. *)
and invoke_like ctx st locks th =
  let st' = { st with ls = LS.union st.ls locks } in
  match th.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter (fun c -> eval ctx { st' with in_fn = true } c.c_rhs) cases
  | _ ->
      if not (invokes_param ctx st'.ls th || passes_known_fn ctx st' th) then
        eval ctx st' th

and eval_apply ctx st (e : expression) =
  let h, args = Typed.spine ~unit_name:ctx.unit_name e in
  let key = Typed.head_key ~unit_name:ctx.unit_name h in
  match key with
  | Some ("Mutex", "lock") ->
      (* not in sequence-head position, so never wrapper-shaped *)
      bare ctx e.exp_loc "Mutex.lock"
  | Some ("Mutex", "unlock") ->
      if not (Hashtbl.mem ctx.sanctioned (loc_str ctx.rule_path e.exp_loc))
      then bare ctx e.exp_loc "Mutex.unlock"
  | Some ("Mutex", "try_lock") -> bare ctx e.exp_loc "Mutex.try_lock"
  | Some ("Fun", "protect") ->
      List.iter
        (fun (lab, a) ->
          match (lab, a) with
          | Asttypes.Labelled "finally", Some g -> eval ctx st g
          | _, Some th -> invoke_like ctx st LS.empty th
          | _, None -> ())
        args
  | _ -> (
      eval ctx st h;
      let smry =
        match key with
        | Some (m, v) -> Hashtbl.find_opt ctx.tb.summaries (m ^ "." ^ v)
        | None -> None
      in
      let arg_exprs = List.map snd args in
      let nth i =
        match List.nth_opt arg_exprs i with Some (Some a) -> Some a | _ -> None
      in
      let resolve l =
        match l with
        | LParam i -> (
            match nth i with
            | Some a -> norm_lock ctx a
            | None -> LLocal (loc_str ctx.rule_path e.exp_loc))
        | l -> l
      in
      match smry with
      | Some s ->
          if st.in_fn then
            meet_guard ctx.tb s (LS.union st.ls (self_guard ctx));
          let acq = LS.map resolve s.acquires in
          note_edges ctx st e.exp_loc acq;
          (match ctx.fn_key with
          | Some k ->
              let self = summary_for ctx.tb k in
              LS.iter (fun l -> add_acquires ctx.tb self l) acq
          | None -> ());
          let consumed = ref [] in
          List.iter
            (fun (i, locks) ->
              match nth i with
              | Some a ->
                  consumed := i :: !consumed;
                  invoke_like ctx st (LS.map resolve locks) a
              | None -> ())
            s.invokes;
          List.iteri
            (fun i a ->
              match a with
              | Some a when not (List.mem i !consumed) -> eval ctx st a
              | _ -> ())
            arg_exprs
      | None ->
          (* direct application of one of our parameters *)
          ignore (invokes_param ctx st.ls h);
          List.iter
            (Option.iter (fun a ->
                 if not (passes_known_fn ctx st a) then eval ctx st a))
            arg_exprs)

(* ------------------------------------------------------------------ *)
(* Structures and inventory                                            *)
(* ------------------------------------------------------------------ *)

(* Bind the leading parameter chain of a top-level binding to indices,
   then walk the body. *)
let rec walk_params ctx idx st (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
      List.iter
        (fun id -> Hashtbl.replace ctx.params (Ident.unique_name id) idx)
        (pat_bound_idents c.c_lhs);
      walk_params ctx (idx + 1) { st with in_fn = true } c.c_rhs
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          List.iter
            (fun id -> Hashtbl.replace ctx.params (Ident.unique_name id) idx)
            (pat_bound_idents c.c_lhs))
        cases;
      eval ctx st e
  | _ -> eval ctx st e

(* `let x = e` types the pattern as Tpat_var; `let x : τ = e` as
   Tpat_alias over the constraint. Both bind one ident. *)
let var_of_pat (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let register_value_cell ctx chain (vb : value_binding) =
  match var_of_pat vb.vb_pat with
  | Some id -> (
      let name = Ident.name id in
      Hashtbl.replace ctx.toplevel (Ident.unique_name id)
        (Typed.owner ~unit_name:ctx.unit_name chain, name);
      match container_of vb.vb_pat.pat_type with
      | Some cont ->
          let loc = vb.vb_pat.pat_loc in
          register_cell ctx chain ~suffix:name
            ~ident:(Some (Ident.unique_name id))
            ~loc ~anchors:[ Typed.loc_line loc ] ~container:cont
            ~atomic:(cont = "Atomic.t")
      | None -> ())
  | None -> ()

let register_type_cells ctx chain (d : type_declaration) =
  match d.typ_kind with
  | Ttype_record lds ->
      let tname = d.typ_name.Asttypes.txt in
      let tline = Typed.loc_line d.typ_loc in
      List.iter
        (fun (ld : label_declaration) ->
          let cont = container_of ld.ld_type.ctyp_type in
          let muta = ld.ld_mutable = Asttypes.Mutable in
          if muta || cont <> None then
            register_cell ctx chain
              ~suffix:(tname ^ "." ^ ld.ld_name.Asttypes.txt)
              ~ident:None ~loc:ld.ld_loc
              ~anchors:[ Typed.loc_line ld.ld_loc; tline ]
              ~container:
                (match (muta, cont) with
                | true, Some c -> "mutable " ^ c
                | true, None -> "mutable field"
                | false, Some c -> c
                | false, None -> assert false)
              ~atomic:(cont = Some "Atomic.t"))
        lds
  | _ -> ()

let process_structure ctx str =
  Typed.iter_items
    (fun chain item ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
          List.iter (register_type_cells ctx chain) decls
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              register_value_cell ctx chain vb;
              let owner = Typed.owner ~unit_name:ctx.unit_name chain in
              (match var_of_pat vb.vb_pat with
              | Some id -> ctx.fn_key <- Some (owner ^ "." ^ Ident.name id)
              | None -> ctx.fn_key <- None);
              Hashtbl.reset ctx.params;
              (match ctx.fn_key with
              | Some k -> ignore (summary_for ctx.tb k)
              | None -> ());
              walk_params ctx 0 { ls = LS.empty; in_fn = false } vb.vb_expr;
              ctx.fn_key <- None)
            vbs
      | Tstr_eval (e, _) ->
          ctx.fn_key <- None;
          Hashtbl.reset ctx.params;
          eval ctx { ls = LS.empty; in_fn = false } e
      | _ -> ())
    [] str

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let annot =
  { Typed.marker = "race: confined ";
    keywords = confined_keywords;
    unknown_rule = "R-annot";
    noun = "confinement";
    regime = "confinement regime";
    stale_rule = "stale-confine";
    stale_reason =
      "excuses nothing here: the cell it covered is gone, guarded, or atomic"
  }

let confine_hint =
  "guard it with Mutex_util.with_lock, make it Atomic.t, or justify \
   confinement: (* race: confined \
   <owner|router|agent|sim|extern|readonly>: reason *)"

let claim_confined cell =
  List.exists
    (fun line ->
      Allow.claim cell.cl_allows
        ~keyword_ok:(fun kw -> List.mem kw confined_keywords)
        ~line)
    cell.cl_anchors

let sites accesses =
  let shown =
    List.filteri (fun i _ -> i < 3) (List.rev accesses)
    |> List.map (fun a -> Printf.sprintf "%s:%d" a.a_file a.a_line)
  in
  let extra = List.length accesses - List.length shown in
  String.concat ", " shown
  ^ if extra > 0 then Printf.sprintf " (+%d more)" extra else ""

let classify tb out =
  List.iter
    (fun key ->
      let cell = Hashtbl.find tb.cells key in
      if not cell.cl_atomic then begin
        let final =
          List.map
            (fun a ->
              let g =
                match a.a_fn with Some k -> guard_of tb k | None -> LS.empty
              in
              (a, LS.union a.a_ls g))
            cell.cl_accesses
        in
        match final with
        | [] -> () (* never accessed from post-init code *)
        | (_, ls0) :: rest ->
            let unlocked = List.filter (fun (_, ls) -> LS.is_empty ls) final in
            let common =
              List.fold_left (fun acc (_, ls) -> LS.inter acc ls) ls0 rest
            in
            let flag rule message =
              if not (claim_confined cell) then
                out :=
                  { file = cell.cl_file;
                    line = cell.cl_line;
                    col = cell.cl_col;
                    rule;
                    message }
                  :: !out
            in
            if unlocked <> [] then
              flag "R-unguarded"
                (Printf.sprintf
                   "mutable cell %s (%s) is accessed without a lock at %s — \
                    %s"
                   cell.cl_name cell.cl_container
                   (sites (List.map fst unlocked))
                   confine_hint)
            else if LS.is_empty common then
              let show =
                List.filteri (fun i _ -> i < 3) (List.rev final)
                |> List.map (fun (a, ls) ->
                       Printf.sprintf "{%s} at %s:%d"
                         (String.concat ", "
                            (List.map lock_name (LS.elements ls)))
                         a.a_file a.a_line)
                |> String.concat ", "
              in
              flag "R-lockset"
                (Printf.sprintf
                   "mutable cell %s (%s) has no consistent lockset: %s — pick \
                    one lock for every access, or %s"
                   cell.cl_name cell.cl_container show confine_hint)
      end)
    (List.rev !(tb.cell_order))

(* ------------------------------------------------------------------ *)
(* Lock-order cycles                                                   *)
(* ------------------------------------------------------------------ *)

let order_cycles tb out =
  let edges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tb.edges [] in
  let succs n =
    List.filter_map (fun ((a, b), _) -> if a = n then Some b else None) edges
  in
  let reaches a b =
    let seen = Hashtbl.create 8 in
    let rec go n =
      n = b
      || (not (Hashtbl.mem seen n))
         && begin
              Hashtbl.replace seen n ();
              List.exists go (succs n)
            end
    in
    List.exists go (succs a)
  in
  (* every edge that lies on some cycle, grouped by strongly connected
     component so one deadlock shape is one finding *)
  let cyclic = List.filter (fun ((a, b), _) -> reaches b a) edges in
  let rec components = function
    | [] -> []
    | (((a, _), _) as e) :: rest ->
        let same, other =
          List.partition
            (fun ((a', _), _) -> (a = a' || reaches a a') && reaches a' a)
            rest
        in
        (e :: same) :: components other
  in
  List.iter
    (fun comp ->
      let locks =
        List.sort_uniq compare
          (List.concat_map (fun ((a, b), _) -> [ a; b ]) comp)
      in
      let file, line, col =
        List.fold_left
          (fun (f, l, c) (_, (f', l', c')) ->
            if (f', l', c') < (f, l, c) then (f', l', c') else (f, l, c))
          (let _, loc = List.hd comp in
           loc)
          (List.tl comp)
      in
      out :=
        { file;
          line;
          col;
          rule = "R-order";
          message =
            Printf.sprintf
              "lock-order cycle between %s — nested acquisitions must order \
               locks consistently or this can deadlock"
              (String.concat ", " (List.map lock_name locks)) }
        :: !out)
    (components cyclic)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let analyze inputs =
  let tb =
    { summaries = Hashtbl.create 256;
      cells = Hashtbl.create 128;
      cell_alias = Hashtbl.create 64;
      cell_order = ref [];
      edges = Hashtbl.create 32;
      changed = ref true }
  in
  (* The blessed wrapper is a built-in summary so fixtures (and any
     unit compiled without lib/runtime in view) still understand it:
     it acquires its first argument and runs its second under it. *)
  let wl = summary_for tb "Mutex_util.with_lock" in
  wl.acquires <- LS.singleton (LParam 0);
  wl.invokes <- [ (1, LS.singleton (LParam 0)) ];
  Typed.analyze ~annot ~changed:tb.changed inputs
    ~walk:(fun ~emit ~out (lu : Typed.loaded) ->
      let ctx =
        { unit_name = lu.l_unit;
          rule_path = lu.l_rule_path;
          allows = lu.l_allows;
          tb;
          emit;
          out;
          toplevel = Hashtbl.create 64;
          cell_ident = Hashtbl.create 32;
          params = Hashtbl.create 16;
          sanctioned = Hashtbl.create 16;
          fn_key = None }
      in
      process_structure ctx lu.l_structure)
    ~finish:(fun out ->
      classify tb out;
      order_cycles tb out)

let human = Report.human
let to_json = Report.to_json

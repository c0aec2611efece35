open Dmw_bigint
open Dmw_modular
open Dmw_crypto
module Engine = Dmw_sim.Engine

let log_src = Logs.Src.create "dmw.agent" ~doc:"DMW agent phase transitions"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Broken_invariant of string
(* An [option] that the phase machine guarantees is [Some] turned out
   to be [None]: a bug in the phase transitions, never reachable from
   hostile input. Raised instead of [Option.get]/[assert false] so the
   violated invariant is named in the failure (lint R6). *)

let required what = function
  | Some v -> v
  | None -> raise (Broken_invariant what)

type phase = Bidding | Resolving_first | Identifying | Resolving_second | Done_

type task_outcome = { winner : int; y_star : int; y_star2 : int }

(* race: confined agent: per-task protocol state lives inside one
   agent and is driven only by that agent's endpoint thread. *)
type task_state = {
  mutable admitted : bool;
      (* A task enters the pipeline only when the admission scheduler
         releases it: the agent deals its bundle and publishes its
         commitments at admission, so an unadmitted auction cannot
         advance past Bidding (its own share is still missing) no
         matter what peers deliver early. *)
  mutable phase : phase;
  mutable dealer : Bid_commitments.dealer option;
  shares : Share.t option array;
  publics : Bid_commitments.public option array;
  lambda_psi : (Group.elt * Group.elt) option array;
  disclosures : Bigint.t array option array;
  pending_disclosures : Bigint.t array option array;
      (* Bare f rows that arrived before their sender's (Λ, Ψ) pair —
         possible under delay faults, where a disclosure overtakes the
         delayed publication on one link. Promoted to [disclosures]
         when the pair lands, so the final state is a function of the
         delivered message set, not of arrival order. *)
  disclosed_h : Bigint.t array option array;
      (* Companion h-share rows when hardened disclosure is on. *)
  lambda_psi2 : (Group.elt * Group.elt) option array;
  mutable agg : Bid_commitments.aggregate option;
  mutable agg_excl : Bid_commitments.aggregate option;
  mutable y_star : int option;
  mutable winner : int option;
  mutable fallback_round : int;
  mutable resolution_round : int;
  mutable disclosed : bool;
  mutable outcome : task_outcome option;
}

(* race: confined agent: an agent is owned by its endpoint thread;
   other threads talk to it only through messages. *)
type t = {
  params : Params.t;
  id : int;
  bids : int array;
  strategy : Strategy.t;
  rng : Prng.t;
  audit : Audit.t;
  tasks : task_state array;
  batching : bool;
  hardened : bool;
      (* Hardened disclosures: per-entry binding of f rows (closes the
         eq. 13 sum gap at the cost of revealing the matching h
         shares). *)
  pipeline : int;
      (* Admission window: how many task auctions may be in flight at
         once. [m] (the default) reproduces the historical full-overlap
         behavior bit for bit; [1] is strictly sequential — task j+1's
         commit phase starts only once task j resolved. *)
  outbox : Messages.t list array;
      (* Pending messages per destination (reversed); flushed — as one
         Batch envelope per destination when [batching] — at the end of
         every externally-triggered step. *)
  on_phase : (task:int -> phase -> task_outcome option -> unit) option;
      (* Phase-machine observer (WAL checkpointing): fired on the
         agent's own execution context at admission and at every later
         phase transition; sees phase names and settled outcomes only —
         never shares, polynomials or any other crypto state. *)
  mutable aborted : Audit.reason option;
  mutable crashed : bool;
  mutable payments_sent : float array option;
  watchdog : float option;
      (* Idle-check period; None disables crash detection, keeping the
         legacy run-to-quiescence Stalled semantics. *)
  mutable watch_sig : int;
  mutable watch_idle : int;
}

let disclosure_timeout = 0.05 (* virtual seconds; link latencies are ~1-2 ms *)

(* How long to wait for missing (Λ, Ψ) pairs before attempting
   resolution from the available subset, and how many such rounds to
   try before declaring the task stalled. *)
let resolution_timeout = 0.05
let max_resolution_rounds = 3

(* The cheapest candidate degree that could ever resolve: below this
   many present points, a partial attempt cannot succeed. *)
let min_resolution_points params =
  match Params.first_price_candidates params with
  | [] -> max_int
  | d :: _ -> d + 1

(* An agent aborts once its protocol state has been idle for this many
   consecutive watchdog periods. The period must comfortably exceed the
   internal resolution/disclosure timeouts so the built-in recovery
   rounds (partial resolution, Theorem 8 fallback) exhaust first. *)
let watch_threshold = 4

let create ?(batching = false) ?(hardened = false) ?watchdog ?pipeline
    ?on_phase ~params ~id ~bids ~strategy ~rng () =
  (match watchdog with
  | Some p when p <= 0.0 -> invalid_arg "Agent.create: watchdog period <= 0"
  | Some _ | None -> ());
  (match pipeline with
  | Some d when d < 1 -> invalid_arg "Agent.create: pipeline depth < 1"
  | Some _ | None -> ());
  let n = params.Params.n in
  if Array.length bids <> params.Params.m then
    invalid_arg "Agent.create: bid vector length <> m";
  Array.iter
    (fun y ->
      if not (Params.valid_bid params y) then
        invalid_arg "Agent.create: bid outside W")
    bids;
  let task_state () =
    { admitted = false;
      phase = Bidding;
      dealer = None;
      shares = Array.make n None;
      publics = Array.make n None;
      lambda_psi = Array.make n None;
      disclosures = Array.make n None;
      pending_disclosures = Array.make n None;
      disclosed_h = Array.make n None;
      lambda_psi2 = Array.make n None;
      agg = None;
      agg_excl = None;
      y_star = None;
      winner = None;
      fallback_round = 0;
      resolution_round = 0;
      disclosed = false;
      outcome = None }
  in
  { params;
    id;
    bids = Array.copy bids;
    strategy;
    rng;
    audit = Audit.create ();
    tasks = Array.init params.Params.m (fun _ -> task_state ());
    batching;
    hardened;
    pipeline =
      (match pipeline with
      | Some d -> min d params.Params.m
      | None -> params.Params.m);
    on_phase;
    outbox = Array.make (n + 1) [];
    aborted = None;
    crashed = false;
    payments_sent = None;
    watchdog;
    watch_sig = 0;
    watch_idle = 0 }

let id t = t.id
let strategy t = t.strategy
let audit t = t.audit
let aborted t = t.aborted
let phase_of t ~task = t.tasks.(task).phase

(* Fire the phase observer with task [j]'s current cell state; called
   at admission and immediately after every [ts.phase <-] transition. *)
let note_phase t j =
  match t.on_phase with
  | None -> ()
  | Some f ->
      let ts = t.tasks.(j) in
      f ~task:j ts.phase ts.outcome
let pipeline_depth t = t.pipeline
let outcome t ~task = t.tasks.(task).outcome
let outcomes t = Array.map (fun ts -> ts.outcome) t.tasks
let reported_payments t = Option.map Array.copy t.payments_sent

let active t = Option.is_none t.aborted && not t.crashed

let abort t reason =
  Log.warn (fun m ->
      m "agent %d aborts: %a" t.id Audit.pp_reason reason);
  t.aborted <- Some reason

let group t = t.params.Params.group
let n_of t = t.params.Params.n
let alpha_of t k = t.params.Params.alphas.(k)

type transport = {
  send : dst:int -> tag:string -> bytes:int -> Messages.t -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
}

let transport_of_engine eng ~id =
  { send = (fun ~dst ~tag ~bytes msg -> Engine.send eng ~src:id ~dst ~tag ~bytes msg);
    schedule =
      (fun ~delay f -> Engine.at eng ~time:(Engine.now eng +. delay) f) }

(* Outgoing messages are buffered per destination and flushed at the
   end of each externally-triggered step, so that everything a step
   produces for one destination can travel in a single Batch envelope
   when batching is on. Byte accounting uses the actual wire encoding
   (lib/core/codec.ml), not a model. *)
let send_msg _tr t ~dst msg = t.outbox.(dst) <- msg :: t.outbox.(dst)

(* "Publishing" a message = one unicast per other agent (Theorem 11's
   cost model). The payment infrastructure node is not an agent and
   does not receive published protocol messages. *)
let publish tr t msg =
  for dst = 0 to n_of t - 1 do
    if dst <> t.id then send_msg tr t ~dst msg
  done

let flush (tr : transport) t =
  let send ~dst msg =
    tr.send ~dst ~tag:(Messages.tag msg) ~bytes:(Codec.encoded_size msg) msg
  in
  Array.iteri
    (fun dst pending ->
      match List.rev pending with
      | [] -> ()
      | [ msg ] ->
          t.outbox.(dst) <- [];
          send ~dst msg
      | msgs when t.batching ->
          t.outbox.(dst) <- [];
          send ~dst (Messages.Batch msgs)
      | msgs ->
          t.outbox.(dst) <- [];
          List.iter (fun msg -> send ~dst msg) msgs)
    t.outbox

let all_some arr = Array.for_all Option.is_some arr
let count_some arr = Array.fold_left (fun n o -> if Option.is_some o then n + 1 else n) 0 arr

let random_share t =
  let r () = Group.random_exponent (group t) t.rng in
  { Share.e_at = r (); f_at = r (); g_at = r (); h_at = r () }

let random_element t =
  Group.pow (group t) (group t).Group.z1 (Group.random_exponent (group t) t.rng)

let random_public t ~like =
  let rand_vec v =
    Array.map (fun (_ : Pedersen.t) -> Pedersen.of_element (random_element t)) v
  in
  { Bid_commitments.o = rand_vec like.Bid_commitments.o;
    qv = rand_vec like.Bid_commitments.qv;
    r = rand_vec like.Bid_commitments.r }

(* ------------------------------------------------------------------ *)
(* Phase II: Bidding.                                                  *)

(* Deal task [j]'s auction: draw the bundle, seed the agent's own
   share, buffer the private shares and the published commitments. Run
   once per task, when the admission scheduler releases it into the
   pipeline. *)
let deal_task eng t j =
  let ts = t.tasks.(j) in
  begin
    let tau = Params.tau_of_bid t.params t.bids.(j) in
    let dealer =
      Bid_commitments.generate t.rng ~group:(group t)
        ~sigma:t.params.Params.sigma ~tau
    in
    ts.dealer <- Some dealer;
    ts.shares.(t.id) <- Some (Bid_commitments.share_for dealer ~alpha:(alpha_of t t.id));
    (* II.2: private shares to every other agent. *)
    for k = 0 to n_of t - 1 do
      if k <> t.id then begin
        let share =
          match t.strategy with
          | Strategy.Corrupt_share_to v when v = k -> Some (random_share t)
          | Strategy.Withhold_share_from v when v = k -> None
          | _ -> Some (Bid_commitments.share_for dealer ~alpha:(alpha_of t k))
        in
        match share with
        | Some share ->
            (* taint: declassify share: honest bundles come from
               Bid_commitments.share_for; the Corrupt_share_to strategy
               substitutes fresh uniform draws, which carry no
               information about the bid by construction. *)
            send_msg eng t ~dst:k (Messages.Share { task = j; share })
        | None -> ()
      end
    done;
    (* II.3: published commitments. *)
    (match t.strategy with
    | Strategy.Withhold_commitments ->
        (* Keep the real vectors locally so this agent's own state
           machine stays well-defined; nobody else ever sees them. *)
        ts.publics.(t.id) <- Some dealer.public
    | Strategy.Corrupt_commitments ->
        let fake = random_public t ~like:dealer.public in
        (* taint: declassify pedersen: the corrupt-commitment strategy
           publishes uniform group elements in place of the Pedersen
           vectors — indistinguishable from honest commitments and
           bid-independent by construction. *)
        publish eng t (Messages.Commitments { task = j; public = fake });
        ts.publics.(t.id) <- Some fake
    | _ ->
        publish eng t (Messages.Commitments { task = j; public = dealer.public });
        ts.publics.(t.id) <- Some dealer.public)
  end

(* ------------------------------------------------------------------ *)
(* Phase III helpers.                                                  *)

let own_f_row t ts =
  Array.init (n_of t) (fun i ->
      match ts.shares.(i) with
      | Some s -> s.Share.f_at
      | None -> Bigint.zero)

let own_h_row t ts =
  Array.init (n_of t) (fun i ->
      match ts.shares.(i) with
      | Some s -> s.Share.h_at
      | None -> Bigint.zero)

let disclose eng t j ts =
  if not ts.disclosed then begin
    ts.disclosed <- true;
    let row =
      match t.strategy with
      | Strategy.Corrupt_disclosure ->
          Array.init (n_of t) (fun _ -> Group.random_exponent (group t) t.rng)
      | Strategy.Swap_disclosure | Strategy.Swap_disclosure_pairs ->
          let row = own_f_row t ts in
          if n_of t >= 2 then begin
            let tmp = row.(0) in
            row.(0) <- row.(1);
            row.(1) <- tmp
          end;
          row
      | _ -> own_f_row t ts
    in
    ts.disclosures.(t.id) <- Some row;
    if t.hardened then begin
      let h_row = own_h_row t ts in
      (* The pair-swapping forger also swaps the matching h entries so
         every (f, h) pair is internally consistent. *)
      (match t.strategy with
      | Strategy.Swap_disclosure_pairs when n_of t >= 2 ->
          let tmp = h_row.(0) in
          h_row.(0) <- h_row.(1);
          h_row.(1) <- tmp
      | _ -> ());
      ts.disclosed_h.(t.id) <- Some h_row;
      publish eng t
        (* taint: declassify disclosure: Phase III.3 — a discloser k
           publishes the f (and, hardened, h) share rows so eq. (13)
           and winner identification can run; Theorem 10's threshold
           analysis covers exactly this disclosure. *)
        (Messages.F_disclosure_hardened { task = j; f_row = row; h_row })
    end
    else
      (* taint: declassify disclosure: Phase III.3 f-row disclosure
         (eq. 13), the paper's sanctioned share publication. *)
      publish eng t (Messages.F_disclosure { task = j; f_row = row })
  end

let current_disclosers t ts =
  match ts.y_star with
  | None -> []
  | Some y_star ->
      List.init
        (min (n_of t) (y_star + 1 + ts.fallback_round))
        Fun.id

let maybe_disclose eng t j ts =
  let selected = List.mem t.id (current_disclosers t ts) in
  match t.strategy with
  | Strategy.Withhold_disclosure -> ()
  | Strategy.Over_disclose -> disclose eng t j ts
  | _ -> if selected then disclose eng t j ts

(* ------------------------------------------------------------------ *)
(* Phase progression.                                                  *)

let verify_all_shares t j ts =
  let ok = ref true in
  for i = 0 to n_of t - 1 do
    if !ok && i <> t.id then begin
      match (ts.shares.(i), ts.publics.(i)) with
      | Some share, Some public -> begin
          match
            Bid_commitments.verify_share (group t) public
              ~alpha:(alpha_of t t.id) share
          with
          | Ok _ ->
              Audit.log t.audit ~task:j
                ~description:(Printf.sprintf "eq7-9: share from agent %d" i)
                ~ok:true
          | Error _ ->
              Audit.log t.audit ~task:j
                ~description:(Printf.sprintf "eq7-9: share from agent %d" i)
                ~ok:false;
              abort t (Audit.Bad_share { dealer = i });
              ok := false
        end
      | (None, _ | _, None) ->
          raise
            (Broken_invariant
               "verify_all_shares: advance checked all_some shares/publics")
    end
  done;
  !ok

let aggregate_of t ts =
  match ts.agg with
  | Some agg -> agg
  | None ->
      let agg =
        Resolution.aggregate t.params
          ~publics:
            (Array.map (required "aggregate_of: publics complete") ts.publics)
      in
      ts.agg <- Some agg;
      agg

let aggregate_excl_of t ts ~winner =
  match ts.agg_excl with
  | Some agg -> agg
  | None ->
      let agg =
        Bid_commitments.aggregate_exclude (group t) (aggregate_of t ts)
          (required "aggregate_excl_of: winner's public on file"
             ts.publics.(winner))
      in
      ts.agg_excl <- Some agg;
      agg

let sums_of_shares t ts =
  let q = (group t).Group.q in
  Array.fold_left
    (fun (esum, hsum) share ->
      let s = required "sums_of_shares: shares complete" share in
      (Zmod.add q esum s.Share.e_at, Zmod.add q hsum s.Share.h_at))
    (Bigint.zero, Bigint.zero) ts.shares

let rec advance eng t j =
  let ts = t.tasks.(j) in
  if active t && ts.admitted then begin
    match ts.phase with
    | Bidding ->
        if all_some ts.shares && all_some ts.publics then begin
          if verify_all_shares t j ts then begin
            (* III.2: publish (Λ, Ψ). *)
            let esum, hsum = sums_of_shares t ts in
            let lambda =
              match t.strategy with
              | Strategy.Wrong_lambda -> random_element t
              | _ -> Exponent_resolution.lambda (group t) ~e_sum_at:esum
            in
            let psi = Exponent_resolution.psi (group t) ~h_sum_at:hsum in
            ts.lambda_psi.(t.id) <- Some (lambda, psi);
            (* taint: declassify exponent: honest pairs are
               Exponent_resolution encodings (eq. 10); the Wrong_lambda
               strategy substitutes a uniform group element, which is
               bid-independent by construction. *)
            publish eng t (Messages.Lambda_psi { task = j; lambda; psi });
            ts.phase <- Resolving_first;
            note_phase t j;
            ts.resolution_round <- 0;
            schedule_resolution_check eng t j ts ~phase_:Resolving_first;
            advance eng t j
          end
        end
    | Resolving_first -> attempt_first eng t j ts ~partial:false
    | Identifying -> begin
        match ts.y_star with
        | None -> raise (Broken_invariant "Identifying phase implies y_star set")
        | Some y_star ->
            let needed = y_star + 1 in
            if count_some ts.disclosures >= needed then begin
              let agg = aggregate_of t ts in
              (* eq. (13) on every disclosed row we hold. *)
              let ok = ref true in
              for k = 0 to n_of t - 1 do
                if !ok && k <> t.id then begin
                  match ts.disclosures.(k) with
                  | None -> ()
                  | Some f_row ->
                      let valid =
                        if t.hardened then
                          match ts.disclosed_h.(k) with
                          | Some h_row ->
                              Resolution.verify_disclosure_hardened t.params
                                ~publics:
                                  (Array.map
                                     (required "eq13: publics complete")
                                     ts.publics)
                                ~k ~f_row ~h_row
                          | None -> false
                        else begin
                          let _, psi =
                            required
                              "eq13: discloser's lambda/psi on file (checked \
                               on receipt)"
                              ts.lambda_psi.(k)
                          in
                          Resolution.verify_disclosure t.params ~agg ~k ~f_row
                            ~psi
                        end
                      in
                      Audit.log t.audit ~task:j
                        ~description:
                          (Printf.sprintf "eq13: f-disclosure from agent %d" k)
                        ~ok:valid;
                      if not valid then begin
                        abort t (Audit.Bad_disclosure { agent = k });
                        ok := false
                      end
                end
              done;
              if !ok then begin
                let rows =
                  List.filter_map
                    (fun k ->
                      Option.map (fun row -> (k, row)) ts.disclosures.(k))
                    (List.init (n_of t) Fun.id)
                in
                match Resolution.winner t.params ~y_star ~rows with
                | None ->
                    abort t
                      (Audit.Resolution_failed { stage = "winner identification" })
                | Some w ->
                    ts.winner <- Some w;
                    (* III.4: publish winner-excluded (Λ̄, Ψ̄). *)
                    let share_w =
                      required "III.4: winner's share held since Phase II"
                        ts.shares.(w)
                    in
                    let lambda0, psi0 =
                      required "III.4: own lambda/psi published in III.2"
                        ts.lambda_psi.(t.id)
                    in
                    let lambda =
                      match t.strategy with
                      | Strategy.Wrong_lambda_excl -> random_element t
                      | _ ->
                          Group.div (group t) lambda0
                            (Group.pow (group t) (group t).Group.z1
                               share_w.Share.e_at)
                    in
                    let psi =
                      Group.div (group t) psi0
                        (Group.pow (group t) (group t).Group.z2
                           share_w.Share.h_at)
                    in
                    ts.lambda_psi2.(t.id) <- Some (lambda, psi);
                    publish eng t
                      (* taint: declassify exponent: Phase III.4 —
                         eq. (15) divides the winner's own share out of
                         the eq. (10) encoding in the exponent; the
                         quotient is the sanctioned second-price
                         publication. *)
                      (Messages.Lambda_psi_excl { task = j; lambda; psi });
                    ts.phase <- Resolving_second;
                    note_phase t j;
                    ts.resolution_round <- 0;
                    schedule_resolution_check eng t j ts ~phase_:Resolving_second;
                    advance eng t j
              end
            end
      end
    | Resolving_second -> attempt_second eng t j ts ~partial:false
    | Done_ -> ()
  end

(* Phase III.2 completion: verify the (Λ, Ψ) pairs we hold and resolve
   the first price. With [~partial:false] (message-driven path) we wait
   for all n pairs; with [~partial:true] (timeout path, crash
   tolerance) we proceed on the available subset — resolution through
   any large-enough point set yields the same degree, so all correct
   agents agree (see Exponent_resolution.resolve_present). *)
and attempt_first eng t j ts ~partial =
  let present = count_some ts.lambda_psi in
  let ready = all_some ts.lambda_psi in
  if ready || (partial && present >= min_resolution_points t.params) then begin
    let agg = aggregate_of t ts in
    let ok = ref true in
    for k = 0 to n_of t - 1 do
      if !ok && k <> t.id then begin
        match ts.lambda_psi.(k) with
        | None -> ()
        | Some (lambda, psi) ->
            let valid =
              Resolution.verify_lambda_psi t.params ~agg ~k ~lambda ~psi
            in
            Audit.log t.audit ~task:j
              ~description:(Printf.sprintf "eq11: lambda/psi from agent %d" k)
              ~ok:valid;
            if not valid then begin
              abort t (Audit.Bad_lambda_psi { agent = k });
              ok := false
            end
      end
    done;
    if !ok then begin
      let elements = Array.map (Option.map fst) ts.lambda_psi in
      match
        Exponent_resolution.resolve_present t.params.Params.group
          ~points:t.params.Params.alphas ~elements
          ~candidates:(Params.first_price_candidates t.params)
      with
      | Some degree ->
          ts.y_star <- Some (Params.bid_of_degree t.params degree);
          Log.debug (fun m ->
              m "agent %d task %d: first price %d (from %d/%d lambda pairs)"
                t.id j
                (Params.bid_of_degree t.params degree)
                present (n_of t));
          ts.resolution_round <- 0;
          ts.phase <- Identifying;
          note_phase t j;
          maybe_disclose eng t j ts;
          schedule_disclosure_check eng t j ts;
          advance eng t j
      | None ->
          (* With every pair present this is a consistently forged
             transcript; with a subset it just means not enough points
             yet — keep waiting for stragglers or further rounds. *)
          if ready then abort t (Audit.Resolution_failed { stage = "first price" })
    end
  end

and attempt_second eng t j ts ~partial =
  let present = count_some ts.lambda_psi2 in
  let ready = all_some ts.lambda_psi2 in
  if ready || (partial && present >= min_resolution_points t.params) then begin
    let w = required "III.5: winner identified before second resolution" ts.winner in
    let agg_excl = aggregate_excl_of t ts ~winner:w in
    let ok = ref true in
    for k = 0 to n_of t - 1 do
      if !ok && k <> t.id then begin
        match ts.lambda_psi2.(k) with
        | None -> ()
        | Some (lambda, psi) ->
            let valid =
              Resolution.verify_lambda_psi_excl t.params ~agg_excl ~k ~lambda
                ~psi
            in
            Audit.log t.audit ~task:j
              ~description:
                (Printf.sprintf "eq11-excl: lambda/psi from agent %d" k)
              ~ok:valid;
            if not valid then begin
              abort t (Audit.Bad_lambda_psi_excl { agent = k });
              ok := false
            end
      end
    done;
    if !ok then begin
      let elements = Array.map (Option.map fst) ts.lambda_psi2 in
      match
        Exponent_resolution.resolve_present t.params.Params.group
          ~points:t.params.Params.alphas ~elements
          ~candidates:(Params.first_price_candidates t.params)
      with
      | Some degree ->
          let y_star2 = Params.bid_of_degree t.params degree in
          Log.debug (fun m ->
              m "agent %d task %d: winner %d, second price %d" t.id j w y_star2);
          ts.outcome <-
            Some
              { winner = w;
                y_star = required "III.5: y_star set since first resolution" ts.y_star;
                y_star2 };
          ts.phase <- Done_;
          note_phase t j;
          maybe_send_payments eng t;
          (* A pipeline slot just freed: release the next unstarted
             auction, if any. *)
          admit_ready eng t
      | None ->
          if ready then abort t (Audit.Resolution_failed { stage = "second price" })
    end
  end

(* Crash tolerance (paper, Open Problem 11 discussion): when (Λ, Ψ)
   pairs are missing past a timeout, periodically retry resolution on
   the available subset. *)
and schedule_resolution_check eng t j ts ~phase_ =
  eng.schedule ~delay:resolution_timeout (fun () ->
      if active t && ts.phase = phase_
         && ts.resolution_round < max_resolution_rounds then begin
        ts.resolution_round <- ts.resolution_round + 1;
        (match phase_ with
        | Resolving_first -> attempt_first eng t j ts ~partial:true
        | Resolving_second -> attempt_second eng t j ts ~partial:true
        | Bidding | Identifying | Done_ -> ());
        flush eng t;
        if active t && ts.phase = phase_ then
          schedule_resolution_check eng t j ts ~phase_
      end)

(* Phase IV: once every auction is resolved, report the payment vector
   to the payment infrastructure (node index n). *)
and maybe_send_payments eng t =
  if Option.is_none t.payments_sent
     && Array.for_all (fun ts -> ts.phase = Done_) t.tasks then begin
    let payments = Array.make (n_of t) 0.0 in
    Array.iter
      (fun ts ->
        match ts.outcome with
        | Some o -> payments.(o.winner) <- payments.(o.winner) +. float_of_int o.y_star2
        | None -> raise (Broken_invariant "Done_ phase implies outcome set"))
      t.tasks;
    (match t.strategy with
    | Strategy.Inflate_payment delta -> payments.(t.id) <- payments.(t.id) +. delta
    | _ -> ());
    t.payments_sent <- Some payments;
    send_msg eng t ~dst:(n_of t) (Messages.Payment_report { payments })
  end

(* The admission scheduler: release unstarted auctions, in index
   order, while fewer than [pipeline] admitted auctions are in flight.
   Admission deals the task (Phase II) and immediately re-examines it:
   when this agent is the last of its peers to admit the task, all
   their shares and commitments are already on file and no further
   message will arrive to drive the phase machine. Messages for a task
   admitted later buffer harmlessly in the per-sender option slots
   until admission seeds the agent's own share. *)
and admit_task eng t j =
  let ts = t.tasks.(j) in
  if not ts.admitted then begin
    ts.admitted <- true;
    note_phase t j;
    deal_task eng t j;
    advance eng t j
  end

and admit_ready eng t =
  let in_flight =
    Array.fold_left
      (fun k ts -> if ts.admitted && ts.phase <> Done_ then k + 1 else k)
      0 t.tasks
  in
  let quota = ref (t.pipeline - in_flight) in
  Array.iteri
    (fun j ts ->
      if (not ts.admitted) && !quota > 0 then begin
        decr quota;
        admit_task eng t j
      end)
    t.tasks

(* The timeout-driven fallback of Theorem 8: when disclosures are
   missing, the next agent in index order joins the disclosure set,
   one per timeout round. *)
and schedule_disclosure_check eng t j ts =
  eng.schedule ~delay:disclosure_timeout (fun () ->
      if active t && ts.phase = Identifying then begin
        match ts.y_star with
        | None -> ()
        | Some y_star ->
            let needed = y_star + 1 in
            if count_some ts.disclosures < needed
               && ts.fallback_round < n_of t then begin
              ts.fallback_round <- ts.fallback_round + 1;
              maybe_disclose eng t j ts;
              schedule_disclosure_check eng t j ts;
              advance eng t j;
              flush eng t
            end
      end)

(* Run start: release the first admission window. At the default depth
   [m] every auction is dealt up front and the whole window travels in
   one flush — the historical behavior, bit for bit. *)
let start_bidding eng t =
  admit_ready eng t;
  flush eng t;
  if Strategy.equal t.strategy Strategy.Crash_after_bidding then
    t.crashed <- true

let rec handle_payload eng t ~src payload =
  (* A hostile or corrupted message must never crash an honest agent:
     out-of-range task ids and senders are dropped silently. *)
  let well_formed =
    (src >= 0 && src < n_of t)
    && (match Messages.task payload with
       | Some task -> task >= 0 && task < t.params.Params.m
       | None -> true)
  in
  if active t && well_formed then begin
    match payload with
    | Messages.Batch msgs ->
        (* One level only: nested batches are rejected by the codec and
           ignored here. *)
        List.iter
          (fun m ->
            match m with
            | Messages.Batch _ -> ()
            | Messages.Share _ | Messages.Commitments _ | Messages.Lambda_psi _
            | Messages.F_disclosure _ | Messages.F_disclosure_hardened _
            | Messages.Lambda_psi_excl _ | Messages.Payment_report _ ->
                handle_payload eng t ~src m)
          msgs
    | Messages.Share { task; share } ->
        let ts = t.tasks.(task) in
        if Option.is_none ts.shares.(src) then begin
          ts.shares.(src) <- Some share;
          advance eng t task
        end
    | Messages.Commitments { task; public } ->
        let ts = t.tasks.(task) in
        if Option.is_none ts.publics.(src) then begin
          ts.publics.(src) <- Some public;
          advance eng t task
        end
    | Messages.Lambda_psi { task; lambda; psi } ->
        let ts = t.tasks.(task) in
        if Option.is_none ts.lambda_psi.(src) then begin
          ts.lambda_psi.(src) <- Some (lambda, psi);
          (match ts.pending_disclosures.(src) with
          | Some f_row when Option.is_none ts.disclosures.(src) ->
              ts.disclosures.(src) <- Some f_row;
              ts.pending_disclosures.(src) <- None
          | Some _ | None -> ts.pending_disclosures.(src) <- None);
          advance eng t task
        end
    | Messages.F_disclosure { task; f_row } ->
        let ts = t.tasks.(task) in
        (* In hardened mode a bare row is treated as withheld: it
           cannot be entry-verified, and the fallback covers it. The
           sender's (Λ, Ψ) pair must be on file before the row counts —
           eq. (13) needs its Ψ, and a legitimate discloser always
           publishes it first; but under delay faults the row can
           overtake the delayed pair on this link, so an early row is
           parked in [pending_disclosures] and promoted when the pair
           lands rather than discarded. *)
        if (not t.hardened)
           && Array.length f_row = n_of t
           && Option.is_none ts.disclosures.(src)
        then
          if Option.is_some ts.lambda_psi.(src) then begin
            ts.disclosures.(src) <- Some f_row;
            advance eng t task
          end
          else if Option.is_none ts.pending_disclosures.(src) then
            ts.pending_disclosures.(src) <- Some f_row
    | Messages.F_disclosure_hardened { task; f_row; h_row } ->
        let ts = t.tasks.(task) in
        if t.hardened
           && Array.length f_row = n_of t
           && Array.length h_row = n_of t
           && Option.is_none ts.disclosures.(src)
        then begin
          ts.disclosures.(src) <- Some f_row;
          ts.disclosed_h.(src) <- Some h_row;
          advance eng t task
        end
    | Messages.Lambda_psi_excl { task; lambda; psi } ->
        let ts = t.tasks.(task) in
        if Option.is_none ts.lambda_psi2.(src) then begin
          ts.lambda_psi2.(src) <- Some (lambda, psi);
          advance eng t task
        end
    | Messages.Payment_report _ -> ()
  end

let handle eng t ~src payload =
  handle_payload eng t ~src payload;
  flush eng t

let phase_name = function
  | Bidding -> "bidding"
  | Resolving_first -> "first-price resolution"
  | Identifying -> "winner identification"
  | Resolving_second -> "second-price resolution"
  | Done_ -> "done"

(* ------------------------------------------------------------------ *)
(* Crash detection (the fault watchdog).                               *)

let phase_index = function
  | Bidding -> 0
  | Resolving_first -> 1
  | Identifying -> 2
  | Resolving_second -> 3
  | Done_ -> 4

(* A fingerprint of everything that can change while the protocol makes
   progress. Two consecutive equal fingerprints mean no message arrived
   and no recovery round fired in between. *)
let progress_signature t =
  let h = ref 1 in
  let mixi v = h := (!h * 131) + v + 1 in
  Array.iter
    (fun ts ->
      mixi (if ts.admitted then 1 else 0);
      mixi (phase_index ts.phase);
      mixi (count_some ts.shares);
      mixi (count_some ts.publics);
      mixi (count_some ts.lambda_psi);
      mixi (count_some ts.disclosures);
      mixi (count_some ts.pending_disclosures);
      mixi (count_some ts.lambda_psi2);
      mixi ts.fallback_round;
      mixi ts.resolution_round;
      mixi (if Option.is_some ts.outcome then 1 else 0))
    t.tasks;
  mixi (if Option.is_some t.payments_sent then 1 else 0);
  !h

let protocol_finished t =
  Array.for_all (fun ts -> ts.phase = Done_) t.tasks
  && Option.is_some t.payments_sent

(* What to blame when progress is stuck for good. The verdict is a
   function of the (confluent) final state, i.e. of the set of messages
   the environment delivered — not of backend timing — so all correct
   agents of a run reach the same one, on every backend. *)
let diagnose_silence t =
  match
    Array.to_list t.tasks |> List.find_opt (fun ts -> ts.phase <> Done_)
  with
  | None -> None
  | Some ts ->
      let first_missing arr =
        let rec go k =
          if k >= n_of t then None
          else if k <> t.id && Option.is_none arr.(k) then Some k
          else go (k + 1)
        in
        go 0
      in
      let blame arr =
        match first_missing arr with
        | Some k -> Audit.Peer_silent { agent = k }
        | None -> Audit.Deadline_exceeded { phase = phase_name ts.phase }
      in
      Some
        (match ts.phase with
        | Bidding -> (
            match first_missing ts.shares with
            | Some k -> Audit.Peer_silent { agent = k }
            | None -> blame ts.publics)
        | Resolving_first -> blame ts.lambda_psi
        | Identifying -> (
            (* Blame the first selected discloser whose row never came;
               with all of them in hand the stall is unexplainable by
               silence alone. *)
            match
              List.find_opt
                (fun k -> k <> t.id && Option.is_none ts.disclosures.(k))
                (current_disclosers t ts)
            with
            | Some k -> Audit.Peer_silent { agent = k }
            | None -> Audit.Deadline_exceeded { phase = phase_name ts.phase })
        | Resolving_second -> blame ts.lambda_psi2
        | Done_ -> Audit.Deadline_exceeded { phase = phase_name ts.phase })

let rec watchdog_tick eng t ~period =
  if active t && not (protocol_finished t) then begin
    let s = progress_signature t in
    if s <> t.watch_sig then begin
      t.watch_sig <- s;
      t.watch_idle <- 0
    end
    else t.watch_idle <- t.watch_idle + 1;
    if t.watch_idle >= watch_threshold then begin
      match diagnose_silence t with
      | Some reason ->
          abort t reason;
          flush eng t
      | None -> ()
    end
    else begin
      if t.watch_idle = watch_threshold - 1 then begin
        (* Last call before the abort verdict: try to finish every
           stuck auction from the material that did arrive. *)
        Array.iteri
          (fun j ts ->
            match ts.phase with
            | Resolving_first -> attempt_first eng t j ts ~partial:true
            | Resolving_second -> attempt_second eng t j ts ~partial:true
            | Identifying ->
                maybe_disclose eng t j ts;
                advance eng t j
            | Bidding | Done_ -> ())
          t.tasks;
        flush eng t
      end;
      eng.schedule ~delay:period (fun () -> watchdog_tick eng t ~period)
    end
  end

let arm_watchdog eng t =
  match t.watchdog with
  | None -> ()
  | Some period ->
      t.watch_sig <- progress_signature t;
      eng.schedule ~delay:period (fun () -> watchdog_tick eng t ~period)

let start eng t =
  start_bidding eng t;
  arm_watchdog eng t

let finalize_stall t =
  if Option.is_none t.aborted
     && not (Array.for_all (fun ts -> ts.phase = Done_) t.tasks) then begin
    let first_unfinished =
      Array.to_list t.tasks
      |> List.find (fun ts -> ts.phase <> Done_)
    in
    t.aborted <- Some (Audit.Stalled { phase = phase_name first_unfinished.phase })
  end

(* Consensus over the drivers' final agent states. *)
let consensus agents ~c =
  let n = Array.length agents in
  let resolved =
    Array.to_list agents
    |> List.filter (fun a ->
           Option.is_none (aborted a)
           && Array.for_all Option.is_some (outcomes a))
  in
  match resolved with
  | [] -> None
  | first :: rest ->
      let view a =
        Array.map (required "consensus: filtered to fully-resolved agents")
          (outcomes a)
      in
      let v0 = view first in
      if List.length resolved >= n - c
         && List.for_all (fun a -> view a = v0) rest
      then
        Some
          (Dmw_mechanism.Schedule.create ~agents:n
             ~assignment:(Array.map (fun (o : task_outcome) -> o.winner) v0))
      else None

(** Pure per-auction computations of Phase III.

    These are the deterministic functions every agent evaluates on the
    public transcript; the protocol agents ({!Agent}), the public
    auditor ({!Transcript}) and the multi-unit auction ({!Multiunit})
    share them. The test suite checks the agents' outcome against the
    centralized MinWork, which shares none of this code. *)

open Dmw_bigint
open Dmw_modular
open Dmw_crypto

exception Resolution_failure of string
(** A transcript that passed every commitment check still failed to
    resolve — either a protocol bug or a forgery outside the checked
    class. Carries the stage name ("first price", "winner
    identification", ...). *)

val require : stage:string -> 'a option -> 'a
(** [require ~stage o] unwraps [o], raising
    [Resolution_failure stage] on [None]. The typed replacement for
    [Option.get]/[failwith] in resolution hot paths (lint R6). *)

val first_price : Params.t -> lambdas:Group.elt array -> int option
(** Resolve [y* = σ − deg E] from the published [Λ_k] (eq. 12),
    scanning the candidate degrees of
    {!Params.first_price_candidates}. [None] when no candidate passes
    — resolution failure. *)

val second_price : Params.t -> lambdas_excl:Group.elt array -> int option
(** Same resolution applied to the winner-excluded [Λ̄_k]. *)

val winner :
  Params.t -> y_star:int -> rows:(int * Bigint.t array) list -> int option
(** Identify the winner from disclosed [f]-share rows.
    [rows] maps discloser index [k] to the row [f_1(α_k), .., f_n(α_k)];
    the first [y* + 1] rows (by discloser index) are used. Agent [i]
    wins iff [deg f_i ≤ y*] (eq. 14); ties break to the smallest
    pseudonym. [None] if no agent passes (corrupted transcript) or
    fewer than [y* + 1] rows are given. *)

val aggregate :
  Params.t -> publics:Bid_commitments.public array -> Bid_commitments.aggregate
(** Slot-wise product of everyone's commitment vectors, computed once
    per auction; see the complexity note in {!Dmw_crypto.Bid_commitments}. *)

val verify_lambda_psi :
  Params.t -> agg:Bid_commitments.aggregate -> k:int ->
  lambda:Group.elt -> psi:Group.elt -> bool
(** eq. (11) for agent [k]'s published pair:
    [Π_ℓ Γ_{k,ℓ} = Γ̄(α_k) = Λ_k Ψ_k]. *)

val verify_lambda_psi_excl :
  Params.t -> agg_excl:Bid_commitments.aggregate ->
  k:int -> lambda:Group.elt -> psi:Group.elt -> bool
(** eq. (11) against an aggregate with the winner's commitments divided
    out (Phase III.4); build it with
    {!Dmw_crypto.Bid_commitments.aggregate_exclude}. *)

val verify_disclosure :
  Params.t -> agg:Bid_commitments.aggregate -> k:int ->
  f_row:Bigint.t array -> psi:Group.elt -> bool
(** eq. (13) for the row disclosed by agent [k]: [z1^{F(α_k)} Ψ_k]
    must match [Φ̄(α_k) = Π_ℓ Φ_{k,ℓ}]. Binds only the row's {e sum}
    (see {!Dmw_core.Messages.F_disclosure_hardened}). *)

val verify_disclosure_hardened :
  Params.t -> publics:Bid_commitments.public array -> k:int ->
  f_row:Bigint.t array -> h_row:Bigint.t array -> bool
(** Per-entry binding: for every dealer [i],
    [z1^{f_row.(i)} z2^{h_row.(i)} = Φ_{k,i}] with [Φ] recomputed from
    dealer [i]'s own [R] commitments at [α_k]. Costs [O(nσ)]
    exponentiations per row (the aggregation trick cannot apply to
    per-dealer checks); closes the eq. (13) gap. *)

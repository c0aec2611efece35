(** Public transcripts and third-party auditing.

    The paper repeatedly appeals to public verifiability: "Any entity
    can verify that [Λ_i] and [Ψ_i] are proper" (eq. 11), "Any agent
    can verify the disclosures" (eq. 13). This module makes that
    concrete: a {!t} is exactly the {e published} portion of one
    auction — commitment vectors, [(Λ, Ψ)] pairs, disclosed [f]-rows,
    winner-excluded pairs — with no private shares, and {!audit}
    replays every public check and recomputes the outcome.

    What an external auditor {e can} establish from the transcript
    alone: eqs. (11) and (13) hold, the first/second-price
    resolutions and the winner identification are forced by the data.
    What it {e cannot}: eqs. (7)–(9) — those verify private shares
    against the commitments and are only checkable by their
    recipients. The test suite demonstrates both directions (honest
    transcripts audit clean; every public-layer forgery is caught;
    share-level corruption is invisible here and caught by the
    agents instead). *)

open Dmw_bigint
open Dmw_modular
open Dmw_crypto

type t = {
  publics : Bid_commitments.public array;  (** Per dealer, Phase II.3. *)
  lambda_psi : (Group.elt * Group.elt) array;  (** Per agent, Phase III.2. *)
  disclosures : (int * Bigint.t array) list;
      (** Disclosed [f]-rows, [(discloser index, row)], Phase III.3. *)
  lambda_psi_excl : (Group.elt * Group.elt) array;  (** Phase III.4. *)
}

type verdict = {
  winner : int;
  y_star : int;
  y_star2 : int;
  checks : int;  (** Number of public identities verified. *)
}

type error =
  | Invalid_lambda_psi of int
  | Invalid_disclosure of int
  | Invalid_lambda_psi_excl of int
  | No_first_price
  | No_winner
  | No_second_price
  | Malformed of string

val of_direct : ?seed:int -> Params.t -> bids:int array -> t
(** The transcript an honest single-task execution publishes,
    computed as straight-line calls through {!Resolution}. *)

val audit : Params.t -> t -> (verdict, error) result
(** Replay all public checks and recompute the outcome. *)

val pp_error : Format.formatter -> error -> unit

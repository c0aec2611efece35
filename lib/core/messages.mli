(** Protocol messages (see the paper's Fig. 2).

    Published messages are modelled as [n − 1] point-to-point
    transmissions (the assumption of Theorem 11); share bundles travel
    on private channels. Tags passed to the simulator match the
    constructor names so that the per-phase breakdown of the
    communication experiment is immediate. *)

open Dmw_bigint
open Dmw_modular
open Dmw_crypto

type t =
  | Share of { task : int; share : Share.t }
      (** Phase II.2, private: [e_i(α_k), f_i(α_k), g_i(α_k), h_i(α_k)]. *)
  | Commitments of { task : int; public : Bid_commitments.public }
      (** Phase II.3, published: the O/Q/R vectors. *)
  | Lambda_psi of { task : int; lambda : Group.elt; psi : Group.elt }
      (** Phase III.2, published: [Λ_i, Ψ_i] (eq. 10). *)
  | F_disclosure of { task : int; f_row : Bigint.t array }
      (** Phase III.3, published by a discloser [k]: the vector
          [f_1(α_k), .., f_n(α_k)]. *)
  | F_disclosure_hardened of {
      task : int;
      f_row : Bigint.t array;
      h_row : Bigint.t array;
    }
      (** Hardened Phase III.3 (an extension beyond the paper): the
          [f] shares together with the matching [h] shares, so every
          row {e entry} can be verified against its dealer's own [R]
          commitments — closing the sum-binding gap of eq. (13) that
          the [Swap_disclosure] strategy exploits. The price is that
          the disclosed [h] evaluations reduce the blinding of the
          coefficient commitments from information-theoretic to
          computational (discrete log); the bid-privacy threshold of
          Theorem 10, which rests on the [e] shares, is unchanged. *)
  | Lambda_psi_excl of { task : int; lambda : Group.elt; psi : Group.elt }
      (** Phase III.4, published: [Λ̄_i, Ψ̄_i] with the winner's
          polynomials divided out (eq. 15). *)
  | Payment_report of { payments : float array }
      (** Phase IV.1, sent to the payment infrastructure. *)
  | Batch of t list
      (** Several protocol messages for the same destination in one
          envelope — the batching optimization measured by the
          [batching_ablation] experiment: Phase II emits all [m] tasks'
          shares and commitments at once, so batching them turns
          [Θ(mn²)] messages into [Θ(n²)] envelopes (the {e bytes}
          remain [Θ(mn²)]). Nesting batches is not allowed. *)

val tag : t -> string
(** The constructor's name in lower case ([F_disclosure_hardened] is
    ["f_disclosure_h"]): the key of the per-tag observability counters
    and one input of the fault layer's identity-pure coins. *)

val task : t -> int option
(** The auction a message belongs to; [None] for payment reports and
    batch envelopes. Used by the agents to range-check inputs and by
    the fault layer to key per-message coin flips. *)

val byte_size : Group.t -> n:int -> t -> int
(** Wire-size model used for the byte counters: bignums at minimal
    big-endian length, plus a small fixed header. *)

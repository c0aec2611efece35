(** Multi-unit (M+1)st-price auctions by iterated exclusion.

    DMW descends from Kikuchi's distributed (M+1)st-price auction
    (paper ref. [23]): M identical units are sold to the M best
    bidders at the (M+1)st price. DMW itself is the M = 1 case (one
    task, second price). This module generalizes the repository's
    degree-resolution machinery back to arbitrary M for the
    procurement setting — replicating a task on the M {e fastest}
    machines, each paid the (M+1)st lowest bid:

    - resolve the current minimum bid from [Λ = z1^{E(α)}] (eq. 12);
    - identify one winner (eq. 14, smallest pseudonym on ties);
    - divide the winner's [e] out of the [Λ] values (eq. 15's
      exclusion) and repeat.

    After M rounds the next resolution yields the clearing price. The
    computation below runs as straight-line calls, without the
    simulator; it shares {!Resolution} with the protocol agents.
    Privacy degrades gracefully: the M winners' bids and the (M+1)st
    price become public, losing bids beyond the price stay hidden —
    the same boundary the paper's Theorem 10 remark describes for
    M = 1. *)

type outcome = {
  winners : int list;  (** Agent indices in selection order (ascending bids). *)
  prices : int list;   (** The successive minima — [winners]' bids. *)
  clearing_price : int;  (** The (M+1)st lowest bid: what each winner is paid. *)
}

val run :
  ?seed:int -> Params.t -> bids:int array -> units:int -> outcome
(** One multi-unit auction over a single bid vector ([bids.(i)] is
    agent [i]'s level). Requires [1 <= units <= n - 1]. Uses the same
    polynomial encoding, commitments and in-exponent resolution as the
    protocol. *)

val reference : bids:int array -> units:int -> outcome
(** The plain (centralized) computation: sort and take. {!run} must
    agree with this on every input — asserted by the tests. Ties are
    broken by index, matching pseudonym order only when pseudonyms are
    sorted; use {!run_reference_consistent} for exact comparisons. *)

val run_reference_consistent :
  ?seed:int -> Params.t -> bids:int array -> units:int -> bool
(** Runs both and compares, mapping the pseudonym tie-break onto the
    reference's index tie-break via {!Params.pseudonym_rank}. *)

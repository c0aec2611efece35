(** Closed-form cost predictions — the paper's Table 1, executable.

    The paper summarizes DMW's overhead as a complexity table:
    O(n·m) messages and O(n + W) exponentiations per agent per
    auction. These functions sharpen the O(·) rows into exact counts
    for the implemented protocol, as functions of the population size
    [n], the number of auctions [m] and the resolved prices — so a
    conformance test can check the {e measured} counters against the
    {e predicted} ones, message for message and exponentiation for
    exponentiation.

    The closed forms hold for fault-free, non-batching, non-hardened
    runs with every agent following the suggested strategy and
    [c = 1], on {e any} backend (the protocol is confluent, so
    counts are interleaving-independent). They were derived from the
    protocol structure and verified empirically over
    [n ∈ 4..9, m ∈ 1..3, y* ∈ 1..5] on sim and socket.
    Uniform bids at level [w] make every task resolve at
    [y* = y** = w], so predictions close over [(n, m, w)] — the shape
    the conformance test uses. *)

val messages_per_auction : n:int -> y_star:int -> int
(** [(n-1) · (4n + y* + 1)]: the five message rounds of one auction —

    - shares: [n(n-1)] unicasts;
    - commitments, Λ/Ψ, Λ̄/Ψ̄ (exclusion): [n(n-1)] published each;
    - f-row disclosures: [(y*+1)(n-1)] — one publication per
      discloser, and exactly [y*+1] agents disclose. *)

val messages_per_run : n:int -> m:int -> y_star:int -> int
(** [m · messages_per_auction + n]: all auctions run in one protocol
    execution, plus one payment report per agent to the payment
    infrastructure (node [n]). Uniform [y*] across tasks. *)

val modexps_per_auction : n:int -> y_star:int -> int
(** [8n³ + 9n² + ((y*-1)(y*-3) - 10)·n - (y* + 1)] group
    exponentiations across all [n] agents for one auction ([c = 1]):
    the [8n³] term is commitment-row verification (each of [n] agents
    verifies [n-1] dealers' rows against [O(n)]-coefficient
    commitment vectors), the [9n²] term is commitment construction
    ([2n] Pedersen commitments per dealer at 2 exponentiations each)
    plus per-pair Λ/Ψ checks, and the [y*] terms are the degree
    tests' Lagrange recombinations, whose candidate walk shrinks as
    the resolved degree rises. *)

val modexps_per_run : n:int -> m:int -> y_star:int -> int
(** [m · modexps_per_auction] — payments do no group arithmetic. *)

val commitments_per_run : n:int -> m:int -> int
(** [2mn²] Pedersen commitments: each agent commits to both
    polynomial rows, [n] entries each, per task. *)

val resolution_tests_per_run : n:int -> m:int -> c:int -> y_star:int -> int
(** [2mn · (w_max - y* + 1)] polynomial degree tests with
    [w_max = n - c - 1]: per auction, each of the [n] agents walks
    the candidate degrees from [w_max] down to the answer in both the
    first-price and the exclusion resolution. *)

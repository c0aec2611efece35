open Dmw_bigint
open Dmw_modular
open Dmw_crypto

type t =
  | Share of { task : int; share : Share.t }
  | Commitments of { task : int; public : Bid_commitments.public }
  | Lambda_psi of { task : int; lambda : Group.elt; psi : Group.elt }
  | F_disclosure of { task : int; f_row : Bigint.t array }
  | F_disclosure_hardened of {
      task : int;
      f_row : Bigint.t array;
      h_row : Bigint.t array;
    }
  | Lambda_psi_excl of { task : int; lambda : Group.elt; psi : Group.elt }
  | Payment_report of { payments : float array }
  | Batch of t list

let tag = function
  | Share _ -> "share"
  | Commitments _ -> "commitments"
  | Lambda_psi _ -> "lambda_psi"
  | F_disclosure _ -> "f_disclosure"
  | F_disclosure_hardened _ -> "f_disclosure_h"
  | Lambda_psi_excl _ -> "lambda_psi_excl"
  | Payment_report _ -> "payment_report"
  | Batch _ -> "batch"

let task = function
  | Share { task; _ }
  | Commitments { task; _ }
  | Lambda_psi { task; _ }
  | F_disclosure { task; _ }
  | F_disclosure_hardened { task; _ }
  | Lambda_psi_excl { task; _ } ->
      Some task
  | Payment_report _ | Batch _ -> None

let header_bytes = 8 (* task id + tag *)

let rec byte_size group ~n = function
  | Share _ -> header_bytes + Share.byte_size group
  | Commitments { public; _ } ->
      header_bytes
      + ((Array.length public.Bid_commitments.o
          + Array.length public.Bid_commitments.qv
          + Array.length public.Bid_commitments.r)
        * Group.element_bytes group)
  | Lambda_psi _ | Lambda_psi_excl _ -> header_bytes + (2 * Group.element_bytes group)
  | F_disclosure _ -> header_bytes + (n * Group.exponent_bytes group)
  | F_disclosure_hardened _ -> header_bytes + (2 * n * Group.exponent_bytes group)
  | Payment_report { payments } -> header_bytes + (8 * Array.length payments)
  | Batch msgs ->
      List.fold_left (fun acc m -> acc + byte_size group ~n m) header_bytes msgs

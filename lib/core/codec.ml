open Dmw_bigint
open Dmw_crypto

let max_bigint_bytes = 1 lsl 12

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u16 buf v =
  if v < 0 || v > 0xffff then invalid_arg "Codec: u16 out of range";
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_bigint buf z =
  let bytes = Bigint.to_bytes_be z in
  if String.length bytes > max_bigint_bytes then
    invalid_arg "Codec: bigint too large";
  put_u16 buf (String.length bytes);
  Buffer.add_string buf bytes

let put_vector buf zs =
  put_u16 buf (Array.length zs);
  Array.iter (put_bigint buf) zs

let put_float buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let put_floats buf vs =
  put_u16 buf (Array.length vs);
  Array.iter (put_float buf) vs

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let get_u8 s ~pos =
  if pos + 1 > String.length s then Error "truncated: u8"
  else Ok (Char.code s.[pos], pos + 1)

let get_u16 s ~pos =
  if pos + 2 > String.length s then Error "truncated: u16"
  else Ok ((Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1], pos + 2)

let get_bigint s ~pos =
  let* len, pos = get_u16 s ~pos in
  if len > max_bigint_bytes then Error "bigint field too large"
  else if pos + len > String.length s then Error "truncated: bigint"
  else Ok (Bigint.of_bytes_be (String.sub s pos len), pos + len)

let get_vector s ~pos =
  let* count, pos = get_u16 s ~pos in
  let rec go acc pos remaining =
    if remaining = 0 then Ok (Array.of_list (List.rev acc), pos)
    else
      let* z, pos = get_bigint s ~pos in
      go (z :: acc) pos (remaining - 1)
  in
  go [] pos count

let get_float s ~pos =
  if pos + 8 > String.length s then Error "truncated: float"
  else begin
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor (Int64.shift_left !bits 8)
                (Int64.of_int (Char.code s.[pos + i]))
    done;
    Ok (Int64.float_of_bits !bits, pos + 8)
  end

let get_floats s ~pos =
  let* count, pos = get_u16 s ~pos in
  let rec go acc pos remaining =
    if remaining = 0 then Ok (Array.of_list (List.rev acc), pos)
    else
      let* v, pos = get_float s ~pos in
      go (v :: acc) pos (remaining - 1)
  in
  go [] pos count

(* ------------------------------------------------------------------ *)
(* Message layer                                                       *)

let tag_share = 1
let tag_commitments = 2
let tag_lambda_psi = 3
let tag_f_disclosure = 4
let tag_lambda_psi_excl = 5
let tag_payment_report = 6
let tag_batch = 7
let tag_f_disclosure_hardened = 8

let pedersen_vector v = Array.map Pedersen.to_element v
let to_pedersen_vector v = Array.map Pedersen.of_element v

let rec encode msg =
  let buf = Buffer.create 128 in
  (match msg with
  | Messages.Batch msgs ->
      put_u8 buf tag_batch;
      put_u16 buf (List.length msgs);
      List.iter
        (fun m ->
          (match m with
          | Messages.Batch _ -> invalid_arg "Codec: nested batch"
          | _ -> ());
          let enc = encode m in
          put_u16 buf (String.length enc);
          Buffer.add_string buf enc)
        msgs
  | Messages.Share { task; share } ->
      put_u8 buf tag_share;
      put_u16 buf task;
      put_bigint buf share.Share.e_at;
      put_bigint buf share.Share.f_at;
      put_bigint buf share.Share.g_at;
      put_bigint buf share.Share.h_at
  | Messages.Commitments { task; public } ->
      put_u8 buf tag_commitments;
      put_u16 buf task;
      put_vector buf (pedersen_vector public.Bid_commitments.o);
      put_vector buf (pedersen_vector public.Bid_commitments.qv);
      put_vector buf (pedersen_vector public.Bid_commitments.r)
  | Messages.Lambda_psi { task; lambda; psi } ->
      put_u8 buf tag_lambda_psi;
      put_u16 buf task;
      put_bigint buf lambda;
      put_bigint buf psi
  | Messages.F_disclosure { task; f_row } ->
      put_u8 buf tag_f_disclosure;
      put_u16 buf task;
      put_vector buf f_row
  | Messages.F_disclosure_hardened { task; f_row; h_row } ->
      put_u8 buf tag_f_disclosure_hardened;
      put_u16 buf task;
      put_vector buf f_row;
      put_vector buf h_row
  | Messages.Lambda_psi_excl { task; lambda; psi } ->
      put_u8 buf tag_lambda_psi_excl;
      put_u16 buf task;
      put_bigint buf lambda;
      put_bigint buf psi
  | Messages.Payment_report { payments } ->
      put_u8 buf tag_payment_report;
      put_floats buf payments);
  Buffer.contents buf

let rec decode s =
  let* tag, pos = get_u8 s ~pos:0 in
  let finish pos msg =
    if pos <> String.length s then Error "trailing garbage" else Ok msg
  in
  if tag = tag_batch then begin
    let* count, pos = get_u16 s ~pos in
    let rec go acc pos remaining =
      if remaining = 0 then
        if pos <> String.length s then Error "trailing garbage"
        else Ok (Messages.Batch (List.rev acc))
      else
        let* len, pos = get_u16 s ~pos in
        if pos + len > String.length s then Error "truncated: batch element"
        else
          let* m = decode (String.sub s pos len) in
          (match m with
          | Messages.Batch _ -> Error "nested batch"
          | _ -> go (m :: acc) (pos + len) (remaining - 1))
    in
    go [] pos count
  end
  else if tag = tag_payment_report then begin
    let* payments, pos = get_floats s ~pos in
    finish pos (Messages.Payment_report { payments })
  end
  else begin
    let* task, pos = get_u16 s ~pos in
    match tag with
    | t when t = tag_share ->
        let* e_at, pos = get_bigint s ~pos in
        let* f_at, pos = get_bigint s ~pos in
        let* g_at, pos = get_bigint s ~pos in
        let* h_at, pos = get_bigint s ~pos in
        finish pos (Messages.Share { task; share = { Share.e_at; f_at; g_at; h_at } })
    | t when t = tag_commitments ->
        let* o, pos = get_vector s ~pos in
        let* qv, pos = get_vector s ~pos in
        let* r, pos = get_vector s ~pos in
        finish pos
          (Messages.Commitments
             { task;
               public =
                 { Bid_commitments.o = to_pedersen_vector o;
                   qv = to_pedersen_vector qv;
                   r = to_pedersen_vector r } })
    | t when t = tag_lambda_psi ->
        let* lambda, pos = get_bigint s ~pos in
        let* psi, pos = get_bigint s ~pos in
        finish pos (Messages.Lambda_psi { task; lambda; psi })
    | t when t = tag_f_disclosure ->
        let* f_row, pos = get_vector s ~pos in
        finish pos (Messages.F_disclosure { task; f_row })
    | t when t = tag_f_disclosure_hardened ->
        let* f_row, pos = get_vector s ~pos in
        let* h_row, pos = get_vector s ~pos in
        finish pos (Messages.F_disclosure_hardened { task; f_row; h_row })
    | t when t = tag_lambda_psi_excl ->
        let* lambda, pos = get_bigint s ~pos in
        let* psi, pos = get_bigint s ~pos in
        finish pos (Messages.Lambda_psi_excl { task; lambda; psi })
    | _ -> Error "unknown tag"
  end

let encoded_size msg = String.length (encode msg)

let bigint_to_field z =
  let buf = Buffer.create 16 in
  put_bigint buf z;
  Buffer.contents buf

let bigint_of_field s ~pos = get_bigint s ~pos

(* The calibration pass: what one call into each layer's public
   functions costs, on inputs sized to the workload — its group, its
   population [n] and its degree budget [sigma]. Each figure is the
   median, over batches, of batch time divided by batch size. A batch
   lasts at least [batch_seconds] (or is one call) so the wall clock
   resolves it, and an operation's batches together make at least
   [min_calls] calls. *)

open Dmw_bigint
open Dmw_modular
open Dmw_crypto
open Dmw_core
module Frame = Dmw_net.Frame
module Stats = Dmw_stats.Stats

let min_calls = 1000
let batch_seconds = 0.001
let min_batches = 21

(* Measurement rounds: every operation takes a share of its batches in
   each round, so a burst of load from elsewhere on the machine skews
   a few batches of every operation instead of all batches of one. *)
let rounds = 5

type op = {
  name : string;
  unit : string;  (** "ns", or "ms" for the slow ones *)
  calls : int;  (** at least this many calls in all *)
  per : float;  (** operations per call *)
  f : unit -> unit;
}

let time f k =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to k do
    f ()
  done;
  Unix.gettimeofday () -. t0

let measure ops =
  let sized =
    List.map
      (fun op ->
        let rec size k =
          if k >= op.calls || time op.f k >= batch_seconds then k else size (2 * k)
        in
        (op, size 1, ref []))
      ops
  in
  for _ = 1 to rounds do
    List.iter
      (fun (op, k, samples) ->
        let batches = max min_batches ((op.calls + k - 1) / k) in
        for _ = 1 to (batches + rounds - 1) / rounds do
          samples := (time op.f k /. float_of_int k) :: !samples
        done)
      sized
  done;
  List.map
    (fun (op, _, samples) ->
      let ns = Stats.median !samples *. 1e9 /. op.per in
      (op.name, (if String.equal op.unit "ms" then ns /. 1e6 else ns), op.unit))
    sized

type t = {
  costs : (string * float * string) list;
      (** (metric name, value, unit), in reporting order. *)
  muls_per_pow : float;
      (** Zmod multiplications inside one [Group.pow]: the part of the
          traced multiplication count the modexp cost already covers. *)
}

let cost t name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) t.costs with
  | Some (_, v, _) -> v
  | None -> invalid_arg ("Calib.cost: " ^ name)

(* The messages of one task auction at y* = 1 plus one payment report
   per agent, in Table 1's proportions: n(n-1) each of shares,
   commitments, Λ/Ψ and exclusion Λ/Ψ, and 2(n-1) f-row disclosures. *)
let corpus ~n ~share ~public ~elt ~row =
  let rep k msg = List.init k (fun _ -> msg) in
  let pairs = n * (n - 1) in
  List.concat
    [ rep pairs (Messages.Share { task = 0; share });
      rep pairs (Messages.Commitments { task = 0; public });
      rep pairs (Messages.Lambda_psi { task = 0; lambda = elt; psi = elt });
      rep (2 * (n - 1)) (Messages.F_disclosure { task = 0; f_row = row });
      rep pairs (Messages.Lambda_psi_excl { task = 0; lambda = elt; psi = elt });
      rep n (Messages.Payment_report { payments = Array.make n 1.0 }) ]

let sink f x = ignore (Sys.opaque_identity (f x))

let run ~(group : Group.t) ~n ~c ~seed ~wal_path =
  let rng = Prng.create ~seed in
  let g = group in
  let exponent () = Group.random_exponent g rng in
  let a = Group.pow g g.Group.z1 (exponent ()) in
  let b = Group.pow g g.Group.z2 (exponent ()) in
  let e = exponent () and v = exponent () in
  (* With the default bid range, sigma = w_max + c + 1 = n; bid 1, the
     commonest first price, is encoded in degree sigma - 1. *)
  let sigma = n and tau = n - 1 in
  let alphas = Array.init n (fun _ -> exponent ()) in
  let dealers =
    Array.init n (fun _ -> Bid_commitments.generate rng ~group:g ~sigma ~tau)
  in
  let public = dealers.(0).Bid_commitments.public in
  let share = Bid_commitments.share_for dealers.(0) ~alpha:alphas.(1) in
  let agg =
    Bid_commitments.aggregate g
      (Array.map (fun d -> d.Bid_commitments.public) dealers)
  in
  (* Λ_k = z1^{E(α_k)}, E the sum of every dealer's e polynomial, so
     the degree test runs on a real resolution instance. *)
  let lambdas =
    Array.map
      (fun alpha ->
        Exponent_resolution.lambda g
          ~e_sum_at:
            (Array.fold_left
               (fun acc d ->
                 Zmod.add g.Group.q acc (Bid_commitments.share_for d ~alpha).Share.e_at)
               Bigint.zero dealers))
      alphas
  in
  let candidate = (sigma + c) / 2 in
  let a_nat = Bigint.to_nat a and b_nat = Bigint.to_nat b in
  let p_nat = Bigint.to_nat g.Group.p in
  (* lint: allow bigint-arith: the limb layer is what nat.mul_ns times *)
  let nat_mul () = Nat.mul a_nat b_nat in
  let ab_nat = nat_mul () in
  (* lint: allow bigint-arith: the limb layer is what nat.divmod_ns times *)
  let nat_divmod () = Nat.divmod ab_nat p_nat in
  let msgs =
    corpus ~n ~share ~public ~elt:a ~row:(Array.init n (fun _ -> exponent ()))
  in
  let count = float_of_int (List.length msgs) in
  let payloads = List.map Codec.encode msgs in
  let frames = List.map (Frame.encode ~src:0 ~dst:1) payloads in
  let wal = Dmw_wal.create ~sync_every:max_int wal_path in
  let checkpoint =
    Dmw_wal.Task_phase { attempt = 1; task = 0; phase = Agent.Resolving_first }
  in
  let call name f = { name; unit = "ns"; calls = min_calls; per = 1.0; f = sink f } in
  let each name xs f =
    { name; unit = "ns"; calls = min_calls; per = count;
      f = (fun () -> List.iter (sink f) xs) }
  in
  let costs =
    Fun.protect
      ~finally:(fun () ->
        Dmw_wal.close wal;
        try Sys.remove wal_path with Sys_error _ -> ())
      (fun () ->
        measure
          [ call "nat.mul_ns" nat_mul;
            call "nat.divmod_ns" nat_divmod;
            call "zmod.mul_ns" (fun () -> Zmod.mul g.Group.p a b);
            call "zmod.pow_ns" (fun () -> Zmod.pow g.Group.p a e);
            call "group.pow_ns" (fun () -> Group.pow g a e);
            call "pedersen.commit_ns" (fun () -> Pedersen.commit g ~value:e ~blinding:v);
            call "bid_commitments.generate_ns" (fun () ->
                Bid_commitments.generate rng ~group:g ~sigma ~tau);
            call "bid_commitments.verify_share_ns" (fun () ->
                Bid_commitments.verify_share g public ~alpha:alphas.(1) share);
            call "bid_commitments.gamma_phi_agg_ns" (fun () ->
                Bid_commitments.gamma_phi_agg g agg ~alpha:alphas.(1));
            call "exponent_resolution.test_ns" (fun () ->
                Exponent_resolution.test g ~points:alphas ~elements:lambdas ~candidate);
            each "codec.encode_ns" msgs Codec.encode;
            each "codec.decode_ns" payloads Codec.decode;
            each "frame.encode_ns" payloads (Frame.encode ~src:0 ~dst:1);
            each "frame.decode_ns" frames (fun f -> Frame.decode f);
            call "wal.append_ns" (fun () -> Dmw_wal.append wal checkpoint);
            { name = "wal.sync_ms"; unit = "ms"; calls = 50; per = 1.0;
              f =
                (fun () ->
                  Dmw_wal.append wal checkpoint;
                  Dmw_wal.sync wal) } ])
  in
  let pows = 200 in
  Zmod.Counters.reset ();
  Zmod.Counters.enable ();
  for _ = 1 to pows do
    sink (Group.pow g a) (exponent ())
  done;
  Zmod.Counters.disable ();
  let muls_per_pow =
    float_of_int (Zmod.Counters.multiplications ()) /. float_of_int pows
  in
  Zmod.Counters.reset ();
  { costs; muls_per_pow }

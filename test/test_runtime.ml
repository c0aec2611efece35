(* The concurrent building block Mailbox: FIFO order, timed pops,
   cross-thread wake-ups and close-and-drain shutdown. *)

module Mailbox = Dmw_runtime.Mailbox

let test_mailbox_basics () =
  let box = Mailbox.create () in
  Mailbox.push box 1;
  Mailbox.push box 2;
  Alcotest.(check int) "length" 2 (Mailbox.length box);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Mailbox.pop box);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Mailbox.pop box);
  Alcotest.(check (option int)) "timeout empty" None
    (Mailbox.pop ~timeout:0.02 box)

let test_mailbox_cross_thread () =
  let box = Mailbox.create () in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.01;
        Mailbox.push box 42)
      ()
  in
  (* Blocking pop must wake when the producer pushes. *)
  Alcotest.(check (option int)) "received" (Some 42)
    (Mailbox.pop ~timeout:2.0 box);
  Thread.join producer

let test_mailbox_close_drains_then_stops () =
  let box = Mailbox.create () in
  Mailbox.push box 1;
  Mailbox.close box;
  (* Queued elements survive the close... *)
  Alcotest.(check (option int)) "drained" (Some 1) (Mailbox.pop box);
  (* ...then pops return None without blocking... *)
  Alcotest.(check (option int)) "closed" None (Mailbox.pop box);
  (* ...and later pushes are dropped. *)
  Mailbox.push box 2;
  Alcotest.(check (option int)) "push after close dropped" None (Mailbox.pop box)

let test_mailbox_close_wakes_blocked_pop () =
  let box : int Mailbox.t = Mailbox.create () in
  let result = ref (Some 0) in
  let consumer = Thread.create (fun () -> result := Mailbox.pop box) () in
  Thread.delay 0.02;
  Mailbox.close box;
  Thread.join consumer;
  Alcotest.(check (option int)) "woken with None" None !result

let () =
  Alcotest.run "dmw_runtime"
    [ ("mailbox",
       [ Alcotest.test_case "fifo and timeout" `Quick test_mailbox_basics;
         Alcotest.test_case "cross-thread" `Quick test_mailbox_cross_thread;
         Alcotest.test_case "close drains then stops" `Quick
           test_mailbox_close_drains_then_stops;
         Alcotest.test_case "close wakes blocked pop" `Quick
           test_mailbox_close_wakes_blocked_pop ]) ]

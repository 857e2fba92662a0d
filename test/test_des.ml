(* Tests for the discrete-event substrate: the handle heap. *)

module Heap = P2p_des.Heap

(* ---- heap ---- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> ignore (Heap.insert h ~key:k k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = List.init 5 (fun _ -> fst (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] popped;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  ignore (Heap.insert h ~key:1.0 "a");
  ignore (Heap.insert h ~key:1.0 "b");
  ignore (Heap.insert h ~key:1.0 "c");
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ] order

let test_heap_remove () =
  let h = Heap.create () in
  let _a = Heap.insert h ~key:1.0 "a" in
  let b = Heap.insert h ~key:2.0 "b" in
  let _c = Heap.insert h ~key:3.0 "c" in
  Alcotest.(check bool) "b present" true (Heap.mem h b);
  Alcotest.(check bool) "removed" true (Heap.remove h b);
  Alcotest.(check bool) "b gone" false (Heap.mem h b);
  Alcotest.(check bool) "double remove fails" false (Heap.remove h b);
  let popped = List.init 2 (fun _ -> snd (Option.get (Heap.pop_min h))) in
  Alcotest.(check (list string)) "rest intact" [ "a"; "c" ] popped

let test_heap_remove_after_pop () =
  let h = Heap.create () in
  let a = Heap.insert h ~key:1.0 "a" in
  ignore (Heap.pop_min h);
  Alcotest.(check bool) "stale handle" false (Heap.remove h a)

let test_heap_min_key () =
  let h = Heap.create () in
  Alcotest.(check (option (float 0.0))) "empty" None (Heap.min_key h);
  ignore (Heap.insert h ~key:7.0 ());
  ignore (Heap.insert h ~key:3.0 ());
  Alcotest.(check (option (float 0.0))) "min" (Some 3.0) (Heap.min_key h)

let test_heap_clear () =
  let h = Heap.create () in
  let handles = List.init 10 (fun i -> Heap.insert h ~key:(float_of_int i) i) in
  Heap.clear h;
  Alcotest.(check int) "size 0" 0 (Heap.size h);
  List.iter (fun hd -> Alcotest.(check bool) "handles dead" false (Heap.mem h hd)) handles

let prop_heap_sorts =
  QCheck2.Test.make ~name:"pop order is sorted under random ops" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> ignore (Heap.insert h ~key:k k)) keys;
      if not (Heap.validate h) then false
      else begin
        let rec drain last =
          match Heap.pop_min h with
          | None -> true
          | Some (k, _) -> k >= last && drain k
        in
        drain neg_infinity
      end)

let prop_heap_random_removals =
  QCheck2.Test.make ~name:"random removals keep invariant" ~count:100
    QCheck2.Gen.(list_size (int_range 1 100) (pair (float_bound_exclusive 100.0) bool))
    (fun ops ->
      let h = Heap.create () in
      let handles =
        List.map (fun (k, remove_later) -> (Heap.insert h ~key:k k, remove_later)) ops
      in
      List.iter (fun (hd, remove_later) -> if remove_later then ignore (Heap.remove h hd)) handles;
      Heap.validate h)

let () =
  Alcotest.run "des"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "remove" `Quick test_heap_remove;
          Alcotest.test_case "remove after pop" `Quick test_heap_remove_after_pop;
          Alcotest.test_case "min key" `Quick test_heap_min_key;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_random_removals;
        ] );
    ]

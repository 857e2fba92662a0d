(* The crash-safe campaign layer: spec round trips, deterministic cell
   geometry, the segment store's recovery discipline, and the headline
   guarantee — a campaign killed at any cell (or torn mid-record) and
   resumed produces a byte-identical merged result store. *)

module Campaign = P2p_campaign.Campaign
module Spec = P2p_campaign.Spec
module Store = P2p_campaign.Store
module Json = P2p_obs.Json
open P2p_core

let ( / ) = Filename.concat

let with_temp_dir f =
  let base = Filename.temp_file "p2p_campaign_test" "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote base))))
    (fun () -> f base)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let grid_spec ?(steps = 10) ?(horizon = 40.0) ?(reps = 1) () =
  {
    Spec.name = "test-grid";
    hypothesis = "H-test: Theorem 1 boundary is visible on a coarse grid";
    k = 2;
    mu = 1.0;
    gamma = infinity;
    horizon;
    reps;
    master_seed = 11;
    policy = "random";
    backend = "markov";
    q = 16;
    faults = Faults.none;
    mode =
      Spec.Grid
        {
          lambda = { Spec.lo = 0.3; hi = 2.7; steps };
          us = { Spec.lo = 0.3; hi = 1.8; steps };
        };
  }

let refine_spec () =
  {
    (grid_spec ()) with
    Spec.name = "test-refine";
    mode = Spec.Refine { lambda = (0.3, 2.7); us = (0.3, 1.8); initial = 4; rounds = 2 };
  }

let quiet_opts = { Campaign.default_options with retry_backoff_s = 0.0; checkpoint_every = 7 }

let run_clean dir spec =
  match Campaign.run ~dir quiet_opts spec with
  | Ok o -> o
  | Error msg -> Alcotest.failf "clean run failed: %s" msg

(* ---- spec ---- *)

let test_spec_roundtrip_and_hash () =
  List.iter
    (fun spec ->
      let json = Spec.to_json spec in
      match Spec.of_json json with
      | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg
      | Ok spec' ->
          Alcotest.(check string)
            "canonical encoding survives the round trip"
            (Json.to_string json)
            (Json.to_string (Spec.to_json spec'));
          Alcotest.(check string) "hash stable" (Spec.hash spec) (Spec.hash spec'))
    [ grid_spec (); refine_spec () ];
  (* the hash pins the cell geometry: any parameter change moves it *)
  Alcotest.(check bool) "hash separates specs" true
    (Spec.hash (grid_spec ()) <> Spec.hash { (grid_spec ()) with Spec.master_seed = 12 })

let test_spec_rejects_garbage () =
  let reject label json =
    match Spec.of_json json with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  let patch field value =
    match Spec.to_json (grid_spec ()) with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> if k = field then (k, value) else (k, v)) fields)
    | _ -> assert false
  in
  reject "wrong schema" (patch "schema" (Json.String "not-a-spec"));
  reject "bad policy" (patch "policy" (Json.String "telepathic"));
  reject "zero reps" (patch "reps" (Json.Int 0));
  reject "negative horizon" (patch "horizon" (Json.Float (-1.0)));
  (match Spec.of_json (Spec.to_json { (grid_spec ()) with Spec.backend = "quantum" }) with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error _ -> ());
  match Spec.of_json (Spec.to_json { (grid_spec ()) with Spec.backend = "coded"; q = 6 }) with
  | Ok _ -> Alcotest.fail "non-prime-power q accepted"
  | Error _ -> ()

(* ---- coded backend ---- *)

let coded_spec ?(steps = 3) () =
  {
    (grid_spec ~steps ~horizon:30.0 ()) with
    Spec.name = "test-coded";
    backend = "coded";
    q = 4;
    k = 3;
    gamma = 2.0;
  }

(* The default-backend encoding must not mention the new fields at all:
   every pre-PR9 markov spec keeps its hash, and with it its result
   store and resume directory. *)
let test_markov_encoding_unchanged () =
  let json = Spec.to_json (grid_spec ()) in
  Alcotest.(check bool) "no backend field" true (Json.member "backend" json = None);
  Alcotest.(check bool) "no q field" true (Json.member "q" json = None);
  Alcotest.(check bool) "no shards field" true (Json.member "shards" json = None);
  (* and a parsed legacy document defaults to markov *)
  match Spec.of_json json with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      Alcotest.(check string) "default backend" "markov" spec.Spec.backend;
      Alcotest.(check int) "default q" 16 spec.Spec.q

(* Sharded cells were removed.  A spec still asking for them must fail
   to load rather than silently run a single-loop experiment under the
   old name; an explicit [1] asks for what every spec now gets. *)
let test_shards_field_rejected () =
  let with_shards n =
    match Spec.to_json (grid_spec ()) with
    | Json.Obj fields -> Json.Obj (fields @ [ ("shards", Json.Int n) ])
    | _ -> assert false
  in
  List.iter
    (fun n ->
      match Spec.of_json (with_shards n) with
      | Ok _ -> Alcotest.failf "\"shards\": %d accepted" n
      | Error m ->
          let says_removed =
            List.exists (fun w -> w = "removed") (String.split_on_char ' ' m)
          in
          Alcotest.(check bool) (Printf.sprintf "error says removed: %s" m) true says_removed)
    [ 2; 0 ];
  match Spec.of_json (with_shards 1) with
  | Error m -> Alcotest.failf "\"shards\": 1 rejected: %s" m
  | Ok spec -> Alcotest.(check string) "same spec" (Spec.hash (grid_spec ())) (Spec.hash spec)

(* The canonical encoding and hash of a default markov spec, as recorded
   before the shards field was removed: every existing store resumes. *)
let test_markov_hash_pinned () =
  Alcotest.(check string) "canonical encoding"
    ({|{"schema":"p2p-campaign-spec","version":1,"name":"test-grid",|}
    ^ {|"hypothesis":"H-test: Theorem 1 boundary is visible on a coarse grid",|}
    ^ {|"k":2,"mu":1.0,"gamma":"inf","horizon":40.0,"reps":1,"master_seed":11,|}
    ^ {|"policy":"random","mode":{"type":"grid","lambda":{"lo":0.3,"hi":2.7,"steps":10},|}
    ^ {|"us":{"lo":0.3,"hi":1.8,"steps":10}}}|})
    (Json.to_string (Spec.to_json (grid_spec ())));
  Alcotest.(check string) "hash" "d65ff0e4f22a96b141f4ce014745d194" (Spec.hash (grid_spec ()))

let test_coded_spec_roundtrip () =
  let spec = coded_spec () in
  let json = Spec.to_json spec in
  Alcotest.(check bool) "backend encoded" true
    (Json.member "backend" json = Some (Json.String "coded"));
  match Spec.of_json json with
  | Error m -> Alcotest.failf "coded roundtrip rejected: %s" m
  | Ok spec' ->
      Alcotest.(check string) "hash stable" (Spec.hash spec) (Spec.hash spec');
      Alcotest.(check bool) "backend distinguishes hashes" true
        (Spec.hash spec <> Spec.hash { spec with Spec.backend = "markov" })

let test_coded_campaign_runs () =
  with_temp_dir (fun dir ->
      let spec = coded_spec () in
      let o = run_clean (dir / "coded") spec in
      Alcotest.(check bool) "coded campaign complete" true o.Campaign.complete;
      Alcotest.(check int) "all cells evaluated" 9 o.Campaign.cells_done;
      (* determinism: a second clean run produces a byte-identical store *)
      ignore (run_clean (dir / "again") spec);
      Alcotest.(check string) "coded store reproducible"
        (read_file (Store.results_path ~dir:(dir / "coded")))
        (read_file (Store.results_path ~dir:(dir / "again")));
      match Json.read_jsonl_file (Store.results_path ~dir:(dir / "coded")) with
      | Error m -> Alcotest.fail m
      | Ok { records; _ } ->
          Alcotest.(check int) "nine records" 9 (List.length records);
          List.iter
            (fun r ->
              (match Json.member "theory" r with
              | Some (Json.String v) ->
                  Alcotest.(check bool) "theory verdict present" true (v <> "")
              | _ -> Alcotest.fail "theory field missing");
              match Json.member "verdict" r with
              | Some (Json.String v) ->
                  Alcotest.(check bool) "simulated verdict definite" true
                    (List.mem v [ "stable"; "unstable"; "inconclusive"; "mixed" ])
              | _ -> Alcotest.fail "verdict field missing")
            records)

(* ---- cells ---- *)

let test_grid_cells_row_major () =
  let spec = grid_spec ~steps:3 () in
  let cells = Spec.round0_cells spec in
  Alcotest.(check int) "3x3 grid" 9 (List.length cells);
  Alcotest.(check (option int)) "grid total known" (Some 9) (Spec.grid_total spec);
  List.iteri
    (fun i (c : Spec.cell) ->
      Alcotest.(check int) "sequential index" i c.index;
      Alcotest.(check int) "round 0" 0 c.round)
    cells;
  let first = List.hd cells in
  Alcotest.(check (float 1e-12)) "first lambda" 0.3 first.lambda;
  Alcotest.(check (float 1e-12)) "first us" 0.3 first.us;
  let last = List.nth cells 8 in
  Alcotest.(check (float 1e-12)) "last lambda" 2.7 last.lambda;
  Alcotest.(check (float 1e-12)) "last us" 1.8 last.us

let test_refine_bisects_disagreeing_edges () =
  let spec = refine_spec () in
  let round0 = Spec.round0_cells spec in
  Alcotest.(check int) "initial 4x4" 16 (List.length round0);
  (* round-0 cells sit at stride 2^rounds = 4 on the fine lattice *)
  List.iter
    (fun (c : Spec.cell) ->
      Alcotest.(check int) "x on coarse lattice" 0 (c.ix mod 4);
      Alcotest.(check int) "y on coarse lattice" 0 (c.iy mod 4))
    round0;
  (* verdict split down the middle of the x axis: only the crossing
     edges bisect, and the derivation is a pure function of verdicts *)
  let verdicts =
    List.map
      (fun (c : Spec.cell) -> ((c.ix, c.iy), if c.ix <= 4 then "stable" else "unstable"))
      round0
  in
  let next = Spec.next_round_cells spec ~round:1 ~verdicts ~next_index:16 in
  Alcotest.(check bool) "the boundary bisects" true (next <> []);
  List.iteri
    (fun i (c : Spec.cell) ->
      Alcotest.(check int) "indices continue" (16 + i) c.index;
      Alcotest.(check int) "round 1" 1 c.round;
      Alcotest.(check int) "midpoints straddle the split" 6 c.ix)
    next;
  let again = Spec.next_round_cells spec ~round:1 ~verdicts ~next_index:16 in
  Alcotest.(check int) "deterministic regeneration" (List.length next) (List.length again);
  List.iter2
    (fun (a : Spec.cell) (b : Spec.cell) ->
      Alcotest.(check bool) "same cell sequence" true (a = b))
    next again;
  (* agreement (or missing verdicts) never bisects *)
  let unanimous = List.map (fun (coord, _) -> (coord, "stable")) verdicts in
  Alcotest.(check int) "no disagreement, no cells" 0
    (List.length (Spec.next_round_cells spec ~round:1 ~verdicts:unanimous ~next_index:16))

let test_cell_seed_deterministic () =
  let spec = grid_spec () in
  let s1 = Campaign.cell_seed spec ~index:7 ~attempt:0 in
  Alcotest.(check int) "pure in (spec, index, attempt)" s1
    (Campaign.cell_seed spec ~index:7 ~attempt:0);
  Alcotest.(check bool) "cells get distinct seeds" true
    (s1 <> Campaign.cell_seed spec ~index:8 ~attempt:0);
  Alcotest.(check bool) "retries get fresh seeds" true
    (s1 <> Campaign.cell_seed spec ~index:7 ~attempt:1)

(* ---- store ---- *)

let test_store_seal_and_finalise () =
  with_temp_dir (fun dir ->
      let store_dir = dir / "store" in
      let spec_json = Json.Obj [ ("name", Json.String "s") ] in
      let store =
        match Store.create ~dir:store_dir ~spec_json ~spec_hash:"h" with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      Store.append store {|{"cell":0}|};
      Store.append store {|{"cell":1}|};
      Store.seal store;
      Store.append store {|{"cell":2}|};
      Store.finalise store;
      Store.close store;
      Alcotest.(check string) "merge is the exact concatenation"
        "{\"cell\":0}\n{\"cell\":1}\n{\"cell\":2}\n"
        (read_file (Store.results_path ~dir:store_dir));
      Alcotest.(check bool) "double create refused" true
        (match Store.create ~dir:store_dir ~spec_json ~spec_hash:"h" with
        | Error _ -> true
        | Ok _ -> false))

let test_store_resume_quarantines_torn_tail () =
  with_temp_dir (fun dir ->
      let store_dir = dir / "store" in
      let spec_json = Json.Obj [ ("name", Json.String "s") ] in
      let store =
        match Store.create ~dir:store_dir ~spec_json ~spec_hash:"h" with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      Store.append store {|{"cell":0}|};
      Store.append store {|{"cell":1}|};
      Store.close store;
      (* tear the last record mid-byte *)
      let active = store_dir / "active.jsonl" in
      let bytes = read_file active in
      let oc = open_out_bin active in
      output_string oc (String.sub bytes 0 (String.length bytes - 4));
      close_out oc;
      match Store.resume ~dir:store_dir with
      | Error m -> Alcotest.fail m
      | Ok (store, _, recovery) ->
          Store.close store;
          Alcotest.(check int) "intact record recovered" 1
            (List.length recovery.Store.records);
          Alcotest.(check bool) "tear measured" true (recovery.Store.quarantined_bytes > 0);
          Alcotest.(check bool) "tear file written" true
            (Array.length (Sys.readdir (store_dir / "quarantine")) = 1);
          (* the rewritten active segment holds only intact lines *)
          Alcotest.(check string) "active segment clean" "{\"cell\":0}\n" (read_file active))

(* ---- kill-and-resume byte identity (the headline guarantee) ---- *)

let crash_at records_target =
  {
    quiet_opts with
    Campaign.fault_hook =
      Some (fun records -> if records >= records_target then raise Campaign.Simulated_crash);
  }

let resume_expect dir opts =
  match Campaign.resume ~dir opts with
  | Ok o -> o
  | Error msg -> Alcotest.failf "resume failed: %s" msg

let crash_then_resume_chain spec dir ~crashes =
  (match
     try
       ignore (Campaign.run ~dir (crash_at (List.hd crashes)) spec);
       `Finished
     with Campaign.Simulated_crash -> `Crashed
   with
  | `Crashed -> ()
  | `Finished -> Alcotest.fail "fault hook never fired");
  List.iter
    (fun target ->
      match
        try
          ignore (resume_expect dir (crash_at target));
          `Finished
        with Campaign.Simulated_crash -> `Crashed
      with
      | `Crashed -> ()
      | `Finished -> Alcotest.failf "fault hook at %d never fired" target)
    (List.tl crashes);
  resume_expect dir quiet_opts

let test_grid_kill_resume_byte_identical () =
  with_temp_dir (fun dir ->
      let spec = grid_spec () in
      let clean = run_clean (dir / "clean") spec in
      Alcotest.(check bool) "clean run complete" true clean.Campaign.complete;
      Alcotest.(check int) "100 cells" 100 clean.Campaign.cells_done;
      (* killed at cells 17, 58 and 99, resumed each time *)
      let survived = crash_then_resume_chain spec (dir / "crashy") ~crashes:[ 17; 58; 99 ] in
      Alcotest.(check bool) "resumed to completion" true survived.Campaign.complete;
      Alcotest.(check int) "same cell count" 100 survived.Campaign.cells_done;
      Alcotest.(check bool) "final resume only ran the remainder" true
        (survived.Campaign.cells_run = 1);
      Alcotest.(check string) "merged store byte-identical"
        (read_file (Store.results_path ~dir:(dir / "clean")))
        (read_file (Store.results_path ~dir:(dir / "crashy"))))

let test_torn_write_resume_byte_identical () =
  with_temp_dir (fun dir ->
      let spec = grid_spec () in
      ignore (run_clean (dir / "clean") spec);
      let crashy = dir / "crashy" in
      (try ignore (Campaign.run ~dir:crashy (crash_at 58) spec)
       with Campaign.Simulated_crash -> ());
      (* SIGKILL mid-append: the last record loses its tail *)
      let active = crashy / "active.jsonl" in
      let bytes = read_file active in
      Alcotest.(check bool) "active segment non-empty at crash" true
        (String.length bytes > 5);
      let oc = open_out_bin active in
      output_string oc (String.sub bytes 0 (String.length bytes - 5));
      close_out oc;
      let survived = resume_expect crashy quiet_opts in
      Alcotest.(check bool) "complete after torn resume" true survived.Campaign.complete;
      Alcotest.(check string) "byte-identical despite the tear"
        (read_file (Store.results_path ~dir:(dir / "clean")))
        (read_file (Store.results_path ~dir:crashy));
      Alcotest.(check bool) "tear quarantined" true
        (Array.length (Sys.readdir (crashy / "quarantine")) = 1);
      match Campaign.status ~dir:crashy with
      | Error m -> Alcotest.fail m
      | Ok json ->
          Alcotest.(check (option int)) "status counts the quarantine" (Some 1)
            (Option.bind (Json.member "quarantined" json) Json.to_int_opt))

let test_refine_kill_resume_byte_identical () =
  with_temp_dir (fun dir ->
      let spec = refine_spec () in
      let clean = run_clean (dir / "clean") spec in
      Alcotest.(check bool) "refine run complete" true clean.Campaign.complete;
      Alcotest.(check bool) "refinement went past round 0" true
        (clean.Campaign.cells_done > 16);
      (* kill inside the adaptive rounds: resume must re-derive the same
         cell sequence from the recorded verdicts *)
      let survived =
        crash_then_resume_chain spec (dir / "crashy")
          ~crashes:[ 10; Int.min 20 (clean.Campaign.cells_done - 1) ]
      in
      Alcotest.(check bool) "resumed to completion" true survived.Campaign.complete;
      Alcotest.(check string) "adaptive store byte-identical"
        (read_file (Store.results_path ~dir:(dir / "clean")))
        (read_file (Store.results_path ~dir:(dir / "crashy")));
      (* and the store really contains refined cells *)
      match Json.read_jsonl_file (Store.results_path ~dir:(dir / "clean")) with
      | Error m -> Alcotest.fail m
      | Ok { records; _ } ->
          let rounds =
            List.filter_map
              (fun r -> Option.bind (Json.member "round" r) Json.to_int_opt)
              records
          in
          Alcotest.(check bool) "a round >= 1 cell exists" true
            (List.exists (fun r -> r >= 1) rounds))

(* ---- failure policy: watchdog timeouts, retry history, abort ---- *)

(* One heavy transient cell (events grow quadratically with the horizon)
   under a microscopic watchdog: every attempt times out cooperatively. *)
let slow_spec =
  {
    (grid_spec ~steps:1 ~horizon:2000.0 ()) with
    Spec.name = "test-slow";
    mode =
      Spec.Grid
        {
          lambda = { Spec.lo = 2.5; hi = 2.5; steps = 1 };
          us = { Spec.lo = 0.3; hi = 0.3; steps = 1 };
        };
  }

let test_cell_timeout_retries_with_history () =
  with_temp_dir (fun dir ->
      let opts =
        {
          quiet_opts with
          Campaign.on_error = P2p_runner.Runner.Retry 2;
          cell_timeout_s = Some 1e-6;
        }
      in
      match Campaign.run ~dir:(dir / "store") opts slow_spec with
      | Error msg -> Alcotest.failf "retry policy must not abort: %s" msg
      | Ok o -> (
          Alcotest.(check bool) "campaign completes around the failure" true o.Campaign.complete;
          Alcotest.(check int) "the cell is recorded failed" 1 o.Campaign.failed;
          match Json.read_jsonl_file (Store.results_path ~dir:(dir / "store")) with
          | Error m -> Alcotest.fail m
          | Ok { records = [ r ]; _ } ->
              let str field =
                match Json.member field r with Some (Json.String s) -> s | _ -> "?"
              in
              let int field =
                match Option.bind (Json.member field r) Json.to_int_opt with
                | Some i -> i
                | None -> -1
              in
              Alcotest.(check string) "status failed" "failed" (str "status");
              Alcotest.(check string) "verdict failed" "failed" (str "verdict");
              Alcotest.(check int) "three attempts (1 + 2 retries)" 3 (int "attempts");
              (match Json.member "errors" r with
              | Some (Json.List errs) ->
                  Alcotest.(check int) "full failure history" 3 (List.length errs);
                  List.iter
                    (fun e ->
                      Alcotest.(check bool) "every failure is the watchdog" true
                        (e = Json.String "timeout"))
                    errs
              | _ -> Alcotest.fail "errors field missing")
          | Ok _ -> Alcotest.fail "expected exactly one record"))

let test_cell_timeout_abort_leaves_resumable_store () =
  with_temp_dir (fun dir ->
      let store_dir = dir / "store" in
      let opts = { quiet_opts with Campaign.cell_timeout_s = Some 1e-6 } in
      (match Campaign.run ~dir:store_dir opts slow_spec with
      | Ok _ -> Alcotest.fail "abort policy must surface the failure"
      | Error msg ->
          Alcotest.(check bool) "error names the timeout" true
            (let rec contains i =
               i + 7 <= String.length msg
               && (String.sub msg i 7 = "timeout" || contains (i + 1))
             in
             contains 0));
      (* the aborted store resumes cleanly once the watchdog is lifted *)
      let o = resume_expect store_dir quiet_opts in
      Alcotest.(check bool) "resumed to completion" true o.Campaign.complete;
      Alcotest.(check int) "no failed cells in the end" 0 o.Campaign.failed)

(* ---- registry ---- *)

let test_registry_entry () =
  with_temp_dir (fun dir ->
      let registry = dir / "registry.jsonl" in
      let opts =
        {
          quiet_opts with
          Campaign.registry = Some registry;
          command = "p2psim campaign run (test)";
        }
      in
      (match Campaign.run ~dir:(dir / "store") opts (grid_spec ~steps:2 ()) with
      | Ok o -> Alcotest.(check bool) "complete" true o.Campaign.complete
      | Error m -> Alcotest.fail m);
      match Json.read_jsonl_file registry with
      | Error m -> Alcotest.fail m
      | Ok { records = [ entry ]; _ } ->
          let str field =
            match Json.member field entry with Some (Json.String s) -> s | _ -> "?"
          in
          Alcotest.(check string) "status" "complete" (str "status");
          Alcotest.(check string) "spec hash recorded" (Spec.hash (grid_spec ~steps:2 ())) (str "spec_hash");
          Alcotest.(check string) "exact command recorded" "p2psim campaign run (test)"
            (str "command");
          Alcotest.(check bool) "hypothesis recorded" true (str "hypothesis" <> "?")
      | Ok _ -> Alcotest.fail "expected exactly one registry entry")

(* ---- the installed binary, interrupted by a real SIGINT ---- *)

(* Resolved relative to this test executable, not the cwd: dune runs
   tests from _build/default/test but tools/check.sh runs them from the
   repo root. *)
let p2psim =
  Filename.dirname Sys.executable_name / Filename.parent_dir_name / "bin" / "p2psim.exe"

let write_spec_file path spec =
  Json.write_file_atomic path (fun oc ->
      Json.to_channel oc (Spec.to_json spec);
      output_char oc '\n')

let run_p2psim args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process p2psim (Array.of_list (p2psim :: args)) Unix.stdin devnull devnull
  in
  Unix.close devnull;
  pid

let test_sigint_subprocess_resume () =
  with_temp_dir (fun dir ->
      (* sized so the full sweep takes seconds: SIGINT at ~0.5s lands
         mid-campaign (3-4 s on a 2-core box; the markov backend's cost
         follows state changes, which grow linearly with the horizon) *)
      let spec = grid_spec ~horizon:10_000.0 () in
      let spec_file = dir / "spec.json" in
      write_spec_file spec_file spec;
      let store = dir / "store" in
      let pid =
        run_p2psim
          [ "campaign"; "run"; spec_file; "--dir"; store; "--jobs"; "2";
            "--checkpoint-every"; "5" ]
      in
      Unix.sleepf 0.5;
      (try Unix.kill pid Sys.sigint with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 3 -> () (* interrupted, checkpointed, resumable *)
      | Unix.WEXITED 0 -> Alcotest.fail "campaign finished before the signal; enlarge the spec"
      | s ->
          Alcotest.failf "unexpected exit: %s"
            (match s with
            | Unix.WEXITED c -> Printf.sprintf "code %d" c
            | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
            | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg));
      Alcotest.(check bool) "no merged results yet" false
        (Sys.file_exists (Store.results_path ~dir:store));
      (* the interrupted store carries a valid checkpoint *)
      (match Campaign.status ~dir:store with
      | Error m -> Alcotest.fail m
      | Ok json ->
          Alcotest.(check bool) "progress was persisted" true
            (match Option.bind (Json.member "cells_done" json) Json.to_int_opt with
            | Some n -> n > 0 && n < 100
            | None -> false));
      (* resume in a subprocess, then compare against a clean in-process run *)
      let pid = run_p2psim [ "campaign"; "resume"; "--dir"; store; "--jobs"; "2" ] in
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "resume did not complete");
      ignore (run_clean (dir / "clean") spec);
      Alcotest.(check string) "resumed store byte-identical to a clean run"
        (read_file (Store.results_path ~dir:(dir / "clean")))
        (read_file (Store.results_path ~dir:store)))

let () =
  Alcotest.run "campaign"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip and hash" `Quick test_spec_roundtrip_and_hash;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "markov encoding unchanged" `Quick
            test_markov_encoding_unchanged;
          Alcotest.test_case "coded spec roundtrip" `Quick test_coded_spec_roundtrip;
          Alcotest.test_case "shards field rejected" `Quick test_shards_field_rejected;
          Alcotest.test_case "markov hash pinned" `Quick test_markov_hash_pinned;
        ] );
      ( "coded backend",
        [ Alcotest.test_case "grid campaign runs" `Quick test_coded_campaign_runs ] );
      ( "cells",
        [
          Alcotest.test_case "grid row-major" `Quick test_grid_cells_row_major;
          Alcotest.test_case "refine bisects disagreeing edges" `Quick
            test_refine_bisects_disagreeing_edges;
          Alcotest.test_case "cell seeds deterministic" `Quick test_cell_seed_deterministic;
        ] );
      ( "store",
        [
          Alcotest.test_case "seal and finalise" `Quick test_store_seal_and_finalise;
          Alcotest.test_case "resume quarantines torn tail" `Quick
            test_store_resume_quarantines_torn_tail;
        ] );
      ( "kill-and-resume",
        [
          Alcotest.test_case "grid byte-identical at 17/58/99" `Quick
            test_grid_kill_resume_byte_identical;
          Alcotest.test_case "torn write byte-identical" `Quick
            test_torn_write_resume_byte_identical;
          Alcotest.test_case "adaptive refinement byte-identical" `Quick
            test_refine_kill_resume_byte_identical;
        ] );
      ( "failure policy",
        [
          Alcotest.test_case "timeout retries with history" `Quick
            test_cell_timeout_retries_with_history;
          Alcotest.test_case "abort leaves resumable store" `Quick
            test_cell_timeout_abort_leaves_resumable_store;
        ] );
      ("registry", [ Alcotest.test_case "entry fields" `Quick test_registry_entry ]);
      ( "binary",
        [
          Alcotest.test_case "SIGINT then resume, byte-identical" `Slow
            test_sigint_subprocess_resume;
        ] );
    ]

(* Benchmark and experiment harness entry point.

     dune exec bench/main.exe                 -- every experiment + microbenchmarks
     dune exec bench/main.exe -- e1 e8        -- selected experiments
     dune exec bench/main.exe -- perf         -- microbenchmarks only
     dune exec bench/main.exe -- csv=results  -- also export every table as CSV
     dune exec bench/main.exe -- list         -- list available targets

   Each experiment regenerates one of the paper's artefacts (see DESIGN.md
   Section 5 and EXPERIMENTS.md). *)

(* bench-json / bench-json-quick are not in the default "run everything"
   sweep: they overwrite the committed baseline file, so regenerating it
   is an explicit act. *)
let available = Experiments.all @ [ ("perf", Perf.run); ("scale", Perf.scaling) ]

let extra =
  [
    ("bench-json", Perf.bench_json);
    ("bench-json-quick", Perf.bench_json_quick);
    ("bench-gate", Perf.bench_gate);
  ]

let list_targets () =
  print_endline "available targets:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) (available @ extra)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun arg ->
        match String.index_opt arg '=' with
        | Some i when String.sub arg 0 i = "csv" ->
            let dir = String.sub arg (i + 1) (String.length arg - i - 1) in
            P2p_core.Report.set_output_dir (Some dir);
            Printf.printf "exporting tables as CSV under %s/\n" dir;
            false
        | Some _ | None -> true)
      args
  in
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) available;
      print_endline "\nAll experiments complete. See EXPERIMENTS.md for the recorded snapshot."
  | [ "list" ] -> list_targets ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) (available @ extra) with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown target %S\n" name;
              list_targets ();
              exit 2)
        names

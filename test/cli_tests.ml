(* The binaries' flag sets, driven as subprocesses: [Cli.parse] exits the
   process on bad input, so the built executables are the unit under test.
   Options that were removed must fail loudly (exit 2 with usage), never be
   silently ignored. *)

let repro = "../bin/repro.exe"
let bench = "../bench/main.exe"

(* Runs [exe args], returns (exit code, stdout, stderr). *)
let run exe args =
  let out = Filename.temp_file "cli" ".out"
  and err = Filename.temp_file "cli" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> Alcotest.fail (exe ^ " did not exit normally")
  in
  let read path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  let o = read out and e = read err in
  (code, o, e)

let check_rejected exe prefix args =
  let code, _, err = run exe (prefix @ args) in
  let flag = List.hd args and lines = String.split_on_char '\n' err in
  Alcotest.(check int) (flag ^ ": exit 2") 2 code;
  Alcotest.(check bool) (flag ^ ": names the option") true
    (String.ends_with ~suffix:("unknown option " ^ flag) (List.hd lines));
  Alcotest.(check bool) (flag ^ ": prints usage") true
    (List.exists (String.starts_with ~prefix:"usage:") lines)

let test_repro_run_rejects_removed () =
  List.iter
    (check_rejected repro [ "run"; "fig2"; "--config"; "tiny" ])
    [ [ "--classifier"; "tss" ]; [ "--traffic"; "heavy" ]; [ "--steering"; "rss" ] ]

let test_bench_rejects_removed () =
  List.iter (check_rejected bench [])
    [
      [ "--tables-only" ];
      [ "--jobs"; "1" ];
      [ "--metrics-dir"; "m" ];
      [ "--profile" ];
      [ "--classifier"; "tss" ];
      [ "--traffic"; "heavy" ];
      [ "--steering"; "rss" ];
    ]

(* The option names of a usage text: its rows indent an option by two
   spaces, and wrapped descriptions by more. *)
let options usage =
  String.split_on_char '\n' usage
  |> List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "  -")
  |> List.map (fun l -> List.hd (String.split_on_char ' ' (String.trim l)))

let test_bench_help_lists_five () =
  let code, out, _ = run bench [ "--help" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check (list string)) "options"
    [ "--quick"; "--batch"; "--perf-gate"; "--perf-gate-out"; "--perf-gate-runs" ]
    (options out)

let tests =
  [
    Alcotest.test_case "repro run rejects removed flags" `Quick
      test_repro_run_rejects_removed;
    Alcotest.test_case "bench rejects removed flags" `Quick
      test_bench_rejects_removed;
    Alcotest.test_case "bench --help lists five options" `Quick
      test_bench_help_lists_five;
  ]

(* The command-line terms bromc and the bench harness share: one parse
   and one validation of every common flag. *)

open Helpers
open Cmdliner

(* [Some v] when [args] parse under [term], [None] on a usage error *)
let parse term args =
  let err = Format.formatter_of_buffer (Buffer.create 64) in
  match
    Cmd.eval_value ~err ~argv:(Array.of_list ("t" :: args))
      (Cmd.v (Cmd.info "t") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Version | `Help) | Error _ -> None

let rejected name term args =
  check_bool (name ^ " rejected") true (parse term args = None)

let test_jobs () =
  Alcotest.(check (option int)) "-j 3" (Some 3) (parse Cli.jobs [ "-j"; "3" ]);
  Alcotest.(check (option int))
    "default" (Some (Driver.Pool.default_domains ())) (parse Cli.jobs []);
  rejected "-j 0" Cli.jobs [ "-j"; "0" ];
  rejected "--jobs=-2" Cli.jobs [ "--jobs=-2" ];
  rejected "-j x" Cli.jobs [ "-j"; "x" ]

let test_policy () =
  (match parse Cli.policy [ "--retries"; "2"; "--timeout-ms"; "50" ] with
  | Some p ->
    Alcotest.(check (option int)) "timeout" (Some 50) p.Driver.Guard.timeout_ms;
    check_int "retries" 2 p.Driver.Guard.retries;
    check_bool "walks the ladder" true p.Driver.Guard.degrade
  | None -> Alcotest.fail "valid policy flags rejected");
  rejected "--retries without a value" Cli.policy [ "--retries" ];
  rejected "--retries=-1" Cli.policy [ "--retries=-1" ];
  rejected "--timeout-ms 0" Cli.policy [ "--timeout-ms"; "0" ]

let test_heuristic_and_engines () =
  Alcotest.(check (option string))
    "--heuristic ii" (Some "II")
    (Option.map
       (fun hs -> hs.Mopt.Switch_lower.hs_name)
       (parse Cli.heuristic [ "--heuristic"; "ii" ]));
  rejected "--heuristic IV" Cli.heuristic [ "--heuristic"; "IV" ];
  let engines args =
    Option.map (List.map Sim.Machine.backend_name) (parse Cli.engines args)
  in
  Alcotest.(check (option (list string)))
    "--backend reference" (Some [ "reference" ])
    (engines [ "--backend"; "reference" ]);
  Alcotest.(check (option (list string)))
    "default race"
    (Some (List.map Sim.Machine.backend_name Check.Fuzz.default_backends))
    (engines []);
  rejected "--backend predecoded" Cli.engines [ "--backend"; "predecoded" ]

let suite =
  [
    case "jobs: positive, defaults to the pool width" test_jobs;
    case "policy: retries and watchdog validated" test_policy;
    case "heuristic set and engine list" test_heuristic_and_engines;
  ]

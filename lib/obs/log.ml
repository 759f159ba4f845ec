(** Leveled logging for binaries and libraries.

    The level is global: default [Info], overridable programmatically
    ([set_level]) or by the [OBS_LEVEL] environment variable
    (quiet|error|warn|info|debug). [Info] goes to stdout — it carries the
    user-facing report output of the binaries; warnings, errors and debug
    chatter go to stderr with a level prefix. *)

type level = Quiet | Error | Warn | Info | Debug

let severity = function Quiet -> 0 | Error -> 1 | Warn -> 2 | Info -> 3 | Debug -> 4

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "none" | "off" -> Some Quiet
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" | "trace" -> Some Debug
  | _ -> None

let to_string = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let current =
  ref
    (match Sys.getenv_opt "OBS_LEVEL" with
    | Some s -> ( match of_string s with Some l -> l | None -> Info)
    | None -> Info)

let set_level l = current := l

let level () = !current

let enabled l = severity l <= severity !current

(** Print [msg] at [lvl] without checking the level — for callers that
    test [enabled] first so a message nobody prints is never formatted. *)
let emit lvl msg =
  match lvl with
  | Info ->
      print_string msg;
      print_newline ();
      flush stdout
  | Quiet -> ()
  | lvl ->
      Printf.eprintf "[%s] %s\n%!" (to_string lvl) msg

let log lvl fmt = Printf.ksprintf (fun msg -> if enabled lvl then emit lvl msg) fmt

let error fmt = log Error fmt

let warn fmt = log Warn fmt

let info fmt = log Info fmt

let debug fmt = log Debug fmt

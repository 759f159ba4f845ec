(** The typed error taxonomy for the placement pipeline.

    Every failure a user (or a harness) can provoke maps to one of these
    constructors instead of a bare [Failure]/[Invalid_argument], so
    binaries can render a machine-readable report and exit with a
    distinct code, and tests can assert on the failure *kind* rather
    than a message substring. Programmer errors (index out of bounds,
    broken internal invariants) stay as [Invalid_argument]/[assert]. *)

type t =
  | Invalid_design of { design : string; problems : string list }
      (** The input design violates a structural or numeric invariant
          ([Design.validate], builder/IO structural checks). *)
  | Diverged of { stage : string; detail : string; recoveries : int }
      (** The optimizer state went non-finite and could not be recovered
          within the rollback budget. [recoveries] counts the rollbacks
          attempted before giving up. *)
  | Config_error of { what : string; detail : string }
      (** A flag, option, or [Tdp.Config] field is out of range. *)
  | Infeasible of { stage : string; detail : string }
      (** A well-formed input admits no solution at this stage (e.g. the
          legalizer cannot fit a cell anywhere). *)
  | Parse_failed of { file : string; line : int; detail : string }
      (** A foreign input file (Bookshelf, LEF/DEF, JSONL request) is
          syntactically malformed at [line]. Distinct from
          [Invalid_design]: the bytes never became a design at all. *)

exception Error of t

let fail e = raise (Error e)

let invalid_design ~design problems = fail (Invalid_design { design; problems })

let diverged ~stage ?(recoveries = 0) detail = fail (Diverged { stage; detail; recoveries })

let config_error ~what detail = fail (Config_error { what; detail })

let infeasible ~stage detail = fail (Infeasible { stage; detail })

let parse_failed ~file ~line detail = fail (Parse_failed { file; line; detail })

let kind = function
  | Invalid_design _ -> "invalid_design"
  | Diverged _ -> "diverged"
  | Config_error _ -> "config_error"
  | Infeasible _ -> "infeasible"
  | Parse_failed _ -> "parse_error"

(* Process exit codes for the binaries: 1 stays reserved for unexpected
   exceptions, 124/125 for cmdliner's own CLI/internal errors. *)
let exit_code = function
  | Config_error _ -> 2
  | Invalid_design _ -> 3
  | Diverged _ -> 4
  | Infeasible _ -> 5
  | Parse_failed _ -> 6

let message = function
  | Invalid_design { design; problems } ->
      Printf.sprintf "invalid design %s: %s" design (String.concat "; " problems)
  | Diverged { stage; detail; recoveries } ->
      Printf.sprintf "diverged in %s after %d recover%s: %s" stage recoveries
        (if recoveries = 1 then "y" else "ies")
        detail
  | Config_error { what; detail } -> Printf.sprintf "bad configuration (%s): %s" what detail
  | Infeasible { stage; detail } -> Printf.sprintf "infeasible in %s: %s" stage detail
  | Parse_failed { file; line; detail } ->
      Printf.sprintf "parse error in %s at line %d: %s" file line detail

(* Flat key/value view for structured (JSON) error reports; the JSON
   encoder lives above this library (lib/obs), so only strings here. *)
let fields = function
  | Invalid_design { design; problems } ->
      [ ("design", design); ("problems", String.concat "; " problems) ]
  | Diverged { stage; detail; recoveries } ->
      [ ("stage", stage); ("detail", detail); ("recoveries", string_of_int recoveries) ]
  | Config_error { what; detail } -> [ ("what", what); ("detail", detail) ]
  | Infeasible { stage; detail } -> [ ("stage", stage); ("detail", detail) ]
  | Parse_failed { file; line; detail } ->
      [ ("file", file); ("line", string_of_int line); ("detail", detail) ]

let or_exit f =
  try f ()
  with Error e ->
    prerr_endline (Printf.sprintf "error [%s]: %s" (kind e) (message e));
    exit (exit_code e)

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Util.Errors.Error(%s: %s)" (kind e) (message e))
    | _ -> None)

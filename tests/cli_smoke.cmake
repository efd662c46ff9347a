# CLI exit-code smoke test, run via `cmake -P` (see tests/CMakeLists.txt).
#
# The contract (DESIGN.md "Training & search robustness", src/support/
# logging.h): user errors exit 2 (TLP_FATAL), damaged artifacts exit 3
# (artifactFatal), so scripts can tell "you called it wrong" apart from
# "your file is damaged". This drives the real installed binaries the way
# a shell script would — the in-process death tests cannot see argv
# parsing or main()'s artifact probing.

if(NOT DEFINED TUNE_WORKLOAD OR NOT DEFINED TLP_SERVE
   OR NOT DEFINED DATASET_BUILDER
   OR NOT DEFINED TLP_LINT OR NOT DEFINED TLP_FSCK
   OR NOT DEFINED LINT_FIXTURE_DIR OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
            "usage: cmake -DTUNE_WORKLOAD=... -DTLP_SERVE=... "
            "-DDATASET_BUILDER=... "
            "-DTLP_LINT=... -DTLP_FSCK=... -DLINT_FIXTURE_DIR=... "
            "-DWORK_DIR=... -P cli_smoke.cmake")
endif()

# --- user error (bad argument) must exit 2, before any heavy work -------

execute_process(
    COMMAND "${TUNE_WORKLOAD}" --threads -1
    RESULT_VARIABLE user_error_code
    OUTPUT_QUIET ERROR_VARIABLE user_error_output)
if(NOT user_error_code EQUAL 2)
    message(FATAL_ERROR
            "tune_workload --threads -1: expected exit 2 (user error), "
            "got '${user_error_code}'. stderr: ${user_error_output}")
endif()
if(NOT user_error_output MATCHES "--threads")
    message(FATAL_ERROR
            "tune_workload --threads -1: fatal message does not name the "
            "offending flag. stderr: ${user_error_output}")
endif()

# The inference fast path has no user switch: the retired --legacy-infer
# flag is an unknown flag, i.e. a user error, on both tuning CLIs. The
# other arguments describe a tiny valid run, so only that flag can fail.
set(legacy_serve_dir "${WORK_DIR}/cli_smoke_legacy_serve")
file(REMOVE_RECURSE "${legacy_serve_dir}")
foreach(cli TUNE_WORKLOAD TLP_SERVE)
    if(cli STREQUAL "TLP_SERVE")
        set(tiny_run --dir "${legacy_serve_dir}" --sessions 1)
    else()
        set(tiny_run --subgraphs 1)
    endif()
    execute_process(
        COMMAND "${${cli}}" --model random --rounds 1 ${tiny_run}
            --legacy-infer
        RESULT_VARIABLE legacy_code
        OUTPUT_QUIET ERROR_VARIABLE legacy_output)
    if(NOT legacy_code EQUAL 2 OR NOT legacy_output MATCHES "legacy-infer")
        message(FATAL_ERROR
                "${cli} --legacy-infer: expected exit 2 naming the unknown "
                "flag, got '${legacy_code}'. stderr: ${legacy_output}")
    endif()
endforeach()
file(REMOVE_RECURSE "${legacy_serve_dir}")

# --- corrupt artifact must exit 3, with a Status-shaped message ---------

set(garbage "${WORK_DIR}/cli_smoke_garbage.bin")
file(WRITE "${garbage}" "this is not a TLP artifact, just prose\n")

execute_process(
    COMMAND "${DATASET_BUILDER}" --load "${garbage}"
    RESULT_VARIABLE corrupt_code
    OUTPUT_QUIET ERROR_VARIABLE corrupt_output)
file(REMOVE "${garbage}")
if(NOT corrupt_code EQUAL 3)
    message(FATAL_ERROR
            "dataset_builder --load <garbage>: expected exit 3 (corrupt "
            "artifact), got '${corrupt_code}'. stderr: ${corrupt_output}")
endif()
if(NOT corrupt_output MATCHES "cannot load dataset")
    message(FATAL_ERROR
            "dataset_builder --load <garbage>: message does not explain "
            "the failure. stderr: ${corrupt_output}")
endif()

# --- checkpoint triage: --verify-checkpoint exits 0 intact / 3 damaged -

# Build a real (tiny) checkpoint first: 1 subgraph, 1 round.
set(smoke_ckpt "${WORK_DIR}/cli_smoke_verify.ckpt")
file(REMOVE "${smoke_ckpt}")
execute_process(
    COMMAND "${TUNE_WORKLOAD}" --model random --rounds 1 --subgraphs 1
        --checkpoint "${smoke_ckpt}" --checkpoint-every 1
    RESULT_VARIABLE mk_ckpt_code
    OUTPUT_QUIET ERROR_VARIABLE mk_ckpt_output)
if(NOT mk_ckpt_code EQUAL 0)
    message(FATAL_ERROR
            "tune_workload (building the smoke checkpoint): expected "
            "exit 0, got '${mk_ckpt_code}'. stderr: ${mk_ckpt_output}")
endif()

execute_process(
    COMMAND "${TUNE_WORKLOAD}" --verify-checkpoint "${smoke_ckpt}"
    RESULT_VARIABLE verify_ok_code
    OUTPUT_VARIABLE verify_ok_output ERROR_QUIET)
if(NOT verify_ok_code EQUAL 0)
    message(FATAL_ERROR
            "tune_workload --verify-checkpoint <intact>: expected exit "
            "0, got '${verify_ok_code}'. stdout: ${verify_ok_output}")
endif()
if(NOT verify_ok_output MATCHES "intact")
    message(FATAL_ERROR
            "tune_workload --verify-checkpoint <intact>: output does "
            "not say intact. stdout: ${verify_ok_output}")
endif()

set(bad_ckpt "${WORK_DIR}/cli_smoke_verify_bad.ckpt")
file(WRITE "${bad_ckpt}" "definitely not a TLPS checkpoint\n")
execute_process(
    COMMAND "${TUNE_WORKLOAD}" --verify-checkpoint "${bad_ckpt}"
    RESULT_VARIABLE verify_bad_code
    OUTPUT_QUIET ERROR_VARIABLE verify_bad_output)
file(REMOVE "${bad_ckpt}" "${smoke_ckpt}")
if(NOT verify_bad_code EQUAL 3)
    message(FATAL_ERROR
            "tune_workload --verify-checkpoint <garbage>: expected exit "
            "3 (damaged artifact), got '${verify_bad_code}'. stderr: "
            "${verify_bad_output}")
endif()
if(NOT verify_bad_output MATCHES "damaged tuning-checkpoint")
    message(FATAL_ERROR
            "tune_workload --verify-checkpoint <garbage>: message does "
            "not name the damaged format. stderr: ${verify_bad_output}")
endif()

# A missing file is also an artifact problem (exit 3), not a crash.
execute_process(
    COMMAND "${TUNE_WORKLOAD}" --verify-checkpoint
        "${WORK_DIR}/cli_smoke_no_such_file.ckpt"
    RESULT_VARIABLE verify_missing_code
    OUTPUT_QUIET ERROR_QUIET)
if(NOT verify_missing_code EQUAL 3)
    message(FATAL_ERROR
            "tune_workload --verify-checkpoint <missing>: expected exit "
            "3, got '${verify_missing_code}'")
endif()

# --- tlp_fsck exit codes: 0 = clean, 2 = user error, 3 = damage found --

execute_process(
    COMMAND "${TLP_FSCK}"
    RESULT_VARIABLE fsck_usage_code
    OUTPUT_QUIET ERROR_QUIET)
if(NOT fsck_usage_code EQUAL 2)
    message(FATAL_ERROR
            "tlp_fsck without --dir: expected exit 2 (user error), got "
            "'${fsck_usage_code}'")
endif()

set(fsck_dir "${WORK_DIR}/cli_smoke_fsck")
file(REMOVE_RECURSE "${fsck_dir}")
file(MAKE_DIRECTORY "${fsck_dir}")
execute_process(
    COMMAND "${TLP_FSCK}" --dir "${fsck_dir}"
    RESULT_VARIABLE fsck_clean_code
    OUTPUT_VARIABLE fsck_clean_output ERROR_QUIET)
if(NOT fsck_clean_code EQUAL 0)
    message(FATAL_ERROR
            "tlp_fsck on an empty directory: expected exit 0, got "
            "'${fsck_clean_code}'. stdout: ${fsck_clean_output}")
endif()

# Plant damage (a garbage checkpoint) and debris (a stale atomic temp):
# the audit must exit 3, --repair must contain both, and a follow-up
# audit must come back clean.
file(WRITE "${fsck_dir}/s000.ckpt" "definitely not a TLPS checkpoint\n")
file(WRITE "${fsck_dir}/s001.ckpt.tmp.12345.6" "stranded temp bytes")
execute_process(
    COMMAND "${TLP_FSCK}" --dir "${fsck_dir}"
    RESULT_VARIABLE fsck_dirty_code
    OUTPUT_VARIABLE fsck_dirty_output ERROR_QUIET)
if(NOT fsck_dirty_code EQUAL 3)
    message(FATAL_ERROR
            "tlp_fsck on a damaged directory: expected exit 3, got "
            "'${fsck_dirty_code}'. stdout: ${fsck_dirty_output}")
endif()
if(NOT fsck_dirty_output MATCHES "state corrupt"
   OR NOT fsck_dirty_output MATCHES "state stale-temp")
    message(FATAL_ERROR
            "tlp_fsck report does not classify the planted damage. "
            "stdout: ${fsck_dirty_output}")
endif()

execute_process(
    COMMAND "${TLP_FSCK}" --dir "${fsck_dir}" --repair
    RESULT_VARIABLE fsck_repair_code
    OUTPUT_VARIABLE fsck_repair_output ERROR_QUIET)
if(NOT fsck_repair_code EQUAL 3)
    message(FATAL_ERROR
            "tlp_fsck --repair on a damaged directory: expected exit 3 "
            "(damage was found), got '${fsck_repair_code}'. stdout: "
            "${fsck_repair_output}")
endif()
if(NOT EXISTS "${fsck_dir}/s000.ckpt.quarantined.1")
    message(FATAL_ERROR
            "tlp_fsck --repair did not quarantine the damaged "
            "checkpoint as s000.ckpt.quarantined.1")
endif()
if(EXISTS "${fsck_dir}/s001.ckpt.tmp.12345.6")
    message(FATAL_ERROR "tlp_fsck --repair did not sweep the stale temp")
endif()

execute_process(
    COMMAND "${TLP_FSCK}" --dir "${fsck_dir}"
    RESULT_VARIABLE fsck_after_code
    OUTPUT_VARIABLE fsck_after_output ERROR_QUIET)
file(REMOVE_RECURSE "${fsck_dir}")
if(NOT fsck_after_code EQUAL 0)
    message(FATAL_ERROR
            "tlp_fsck after --repair: expected exit 0 (evidence is not "
            "damage), got '${fsck_after_code}'. stdout: "
            "${fsck_after_output}")
endif()

# --- tlp_lint exit codes: 0 = clean tree, 1 = findings, 2 = bad config -

execute_process(
    COMMAND "${TLP_LINT}"
        --manifest "${LINT_FIXTURE_DIR}/clean/manifest.txt"
        --root "${LINT_FIXTURE_DIR}/clean" .
    RESULT_VARIABLE lint_clean_code
    OUTPUT_QUIET ERROR_VARIABLE lint_clean_output)
if(NOT lint_clean_code EQUAL 0)
    message(FATAL_ERROR
            "tlp_lint on the clean fixture dir: expected exit 0, got "
            "'${lint_clean_code}'. stderr: ${lint_clean_output}")
endif()

execute_process(
    COMMAND "${TLP_LINT}"
        --manifest "${LINT_FIXTURE_DIR}/dirty/manifest.txt"
        --root "${LINT_FIXTURE_DIR}/dirty" .
    RESULT_VARIABLE lint_dirty_code
    OUTPUT_QUIET ERROR_VARIABLE lint_dirty_output)
if(NOT lint_dirty_code EQUAL 1)
    message(FATAL_ERROR
            "tlp_lint on the dirty fixture dir: expected exit 1 "
            "(findings), got '${lint_dirty_code}'. stderr: "
            "${lint_dirty_output}")
endif()
if(NOT lint_dirty_output MATCHES "include-forbidden")
    message(FATAL_ERROR
            "tlp_lint dirty output does not name the Fig. 10 "
            "include-forbidden finding. stderr: ${lint_dirty_output}")
endif()
foreach(flow_rule unchecked-result hot-call-alloc suppression-budget)
    if(NOT lint_dirty_output MATCHES "${flow_rule}")
        message(FATAL_ERROR
                "tlp_lint dirty output does not name the flow-aware "
                "${flow_rule} finding. stderr: ${lint_dirty_output}")
    endif()
endforeach()

# --format json emits the machine-readable report on stdout and keeps
# the human summary (and exit code) intact.
execute_process(
    COMMAND "${TLP_LINT}"
        --manifest "${LINT_FIXTURE_DIR}/clean/manifest.txt"
        --root "${LINT_FIXTURE_DIR}/clean" --format json .
    RESULT_VARIABLE lint_json_code
    OUTPUT_VARIABLE lint_json_stdout
    ERROR_QUIET)
if(NOT lint_json_code EQUAL 0)
    message(FATAL_ERROR
            "tlp_lint --format json on the clean fixture dir: expected "
            "exit 0, got '${lint_json_code}'")
endif()
if(NOT lint_json_stdout MATCHES "\"files_scanned\""
   OR NOT lint_json_stdout MATCHES "\"suppressions\"")
    message(FATAL_ERROR
            "tlp_lint --format json stdout is missing report fields: "
            "${lint_json_stdout}")
endif()

# --max-suppressions overrides the manifest budget: the clean fixture
# carries audited suppressions, so a zero budget must flip it to exit 1.
execute_process(
    COMMAND "${TLP_LINT}"
        --manifest "${LINT_FIXTURE_DIR}/clean/manifest.txt"
        --root "${LINT_FIXTURE_DIR}/clean" --max-suppressions 0 .
    RESULT_VARIABLE lint_budget_code
    OUTPUT_QUIET ERROR_VARIABLE lint_budget_output)
if(NOT lint_budget_code EQUAL 1
   OR NOT lint_budget_output MATCHES "suppression-budget")
    message(FATAL_ERROR
            "tlp_lint --max-suppressions 0 on the clean fixture dir: "
            "expected exit 1 with a suppression-budget finding, got "
            "'${lint_budget_code}'. stderr: ${lint_budget_output}")
endif()

execute_process(
    COMMAND "${TLP_LINT}"
        --manifest "${LINT_FIXTURE_DIR}/badmanifest/manifest.txt"
        --root "${LINT_FIXTURE_DIR}/badmanifest" .
    RESULT_VARIABLE lint_bad_code
    OUTPUT_QUIET ERROR_VARIABLE lint_bad_output)
if(NOT lint_bad_code EQUAL 2)
    message(FATAL_ERROR
            "tlp_lint with a broken manifest: expected exit 2 (config "
            "error), got '${lint_bad_code}'. stderr: ${lint_bad_output}")
endif()

message(STATUS "cli exit-code contract holds: user error=2 (incl. "
               "retired --legacy-infer), corrupt=3, "
               "verify-checkpoint 0/3, fsck 0/2/3, lint clean=0 / "
               "findings=1 / bad manifest=2")

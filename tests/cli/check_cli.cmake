# CLI contract tests for nisqpp_run, driven by CTest:
#   cmake -DNISQPP_RUN=<binary> -P check_cli.cmake
# Every unknown scenario/format/flag must fail with a non-zero exit
# and a helpful message; the happy paths must keep working.

if(NOT NISQPP_RUN)
  message(FATAL_ERROR "pass -DNISQPP_RUN=<path to nisqpp_run>")
endif()

set(failures 0)

# check_cli(<name> <expect_rc_zero?> <stream> <must_match_regex> args...)
# stream is OUT or ERR: which stream the regex must match.
function(check_cli name expect_zero stream pattern)
  execute_process(COMMAND ${NISQPP_RUN} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(ok TRUE)
  if(expect_zero AND NOT rc EQUAL 0)
    set(ok FALSE)
    message(WARNING "${name}: expected exit 0, got ${rc}")
  endif()
  if(NOT expect_zero AND rc EQUAL 0)
    set(ok FALSE)
    message(WARNING "${name}: expected non-zero exit, got 0")
  endif()
  if(stream STREQUAL "OUT")
    set(text "${out}")
  else()
    set(text "${err}")
  endif()
  if(NOT text MATCHES "${pattern}")
    set(ok FALSE)
    message(WARNING "${name}: ${stream} did not match '${pattern}':\n"
                    "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

# check_cli_env(<name> <expect_rc_zero?> <stream> <regex> <VAR=value>
#               args...): check_cli with one environment variable set.
function(check_cli_env name expect_zero stream pattern env)
  set(NISQPP_RUN ${CMAKE_COMMAND} -E env ${env} ${NISQPP_RUN})
  check_cli(${name} ${expect_zero} ${stream} "${pattern}" ${ARGN})
  set(failures ${failures} PARENT_SCOPE)
endfunction()

# Rejections: non-zero exit + a message that names the problem.
check_cli(unknown_scenario FALSE ERR
          "unknown scenario 'fig99_bogus'.*--list"
          --scenario fig99_bogus)
check_cli(unknown_scenario_positional FALSE ERR
          "unknown scenario 'fig99_bogus'"
          fig99_bogus)
check_cli(unknown_format FALSE ERR
          "--format: expected table, csv or json"
          --scenario fig01_sqv --format yaml)
check_cli(unknown_flag FALSE ERR
          "unknown argument '--frobnicate'"
          --frobnicate)
check_cli(negative_seed FALSE ERR
          "--seed: expected an unsigned 64-bit integer"
          --scenario fig01_sqv --seed -5)
# Seeds are decimal digits only: hex and octal spellings must not alias
# another seed, and the fault-plan seed shares the seed= directive's
# range (>= 1) with NISQPP_STREAM_FAULTS.
check_cli(hex_seed FALSE ERR
          "--seed: expected an unsigned 64-bit integer"
          --scenario fig01_sqv --seed 0x8)
check_cli(zero_fault_seed FALSE ERR
          "--fault-seed: expected an unsigned 64-bit integer"
          fault_sweep --fault-seed 0)
set(seed_args fig10_final --format csv --trials-scale 0.01)
execute_process(COMMAND ${NISQPP_RUN} ${seed_args} --seed 010
                RESULT_VARIABLE seed010_rc OUTPUT_VARIABLE seed010_out
                ERROR_QUIET)
execute_process(COMMAND ${NISQPP_RUN} ${seed_args} --seed 8
                RESULT_VARIABLE seed8_rc OUTPUT_VARIABLE seed8_out
                ERROR_QUIET)
if(NOT seed010_rc EQUAL 0 OR NOT seed8_rc EQUAL 0 OR
   seed010_out STREQUAL seed8_out)
  math(EXPR failures "${failures} + 1")
  message(WARNING "decimal_seed: --seed 010 (exit ${seed010_rc}) must "
                  "run as seed ten, not alias --seed 8 (exit ${seed8_rc})")
else()
  message(STATUS "decimal_seed: ok")
endif()

# --batch reaches every scenario's streaming jobs, whose results are
# byte-identical at any decode group size.
foreach(scenario fig05_backlog fig06_runtime streaming_backlog
        tiered_decode fault_sweep)
  set(batch_args ${scenario} --trials-scale 0.05 --format csv)
  execute_process(COMMAND ${NISQPP_RUN} ${batch_args} --batch 64
                  RESULT_VARIABLE batch64_rc OUTPUT_VARIABLE batch64_out
                  ERROR_QUIET)
  execute_process(COMMAND ${NISQPP_RUN} ${batch_args} --batch 1
                  RESULT_VARIABLE batch1_rc OUTPUT_VARIABLE batch1_out
                  ERROR_QUIET)
  if(NOT batch64_rc EQUAL 0 OR NOT batch1_rc EQUAL 0 OR
     NOT batch64_out STREQUAL batch1_out)
    math(EXPR failures "${failures} + 1")
    message(WARNING "${scenario}_batch: --batch 64 (exit ${batch64_rc}) "
                    "must print the --batch 1 (exit ${batch1_rc}) CSV")
  else()
    message(STATUS "${scenario}_batch: ok")
  endif()
endforeach()

check_cli(missing_scenario FALSE ERR
          "usage: nisqpp_run"
          --threads 2)
check_cli(bad_threads FALSE ERR
          "--threads: expected an integer"
          --scenario fig01_sqv --threads 1.5)
check_cli(bad_trials_scale_junk FALSE ERR
          "--trials-scale: expected a number"
          --scenario fig01_sqv --trials-scale 1.5x)

# --escalate-threshold parses strictly (no trailing junk) and only
# accepts fractions in [0, 1].
check_cli(bad_escalate_junk FALSE ERR
          "--escalate-threshold: expected a number"
          tiered_decode --escalate-threshold 0.5x)
check_cli(bad_escalate_above_one FALSE ERR
          "--escalate-threshold: expected a fraction in \\[0, 1\\]"
          tiered_decode --escalate-threshold 1.5)
check_cli(bad_escalate_negative FALSE ERR
          "--escalate-threshold: expected a fraction in \\[0, 1\\]"
          tiered_decode --escalate-threshold -0.5)
check_cli(escalate_missing_value FALSE ERR
          "--escalate-threshold: missing value"
          tiered_decode --escalate-threshold)

# Fault-injection flags fail hard at parse time (the
# NISQPP_STREAM_FAULTS env path warns and disables instead; covered by
# tests/common/test_fault_env.cc). All six rate flags share one parse
# contract, so one flag's rejection cases cover the family.
check_cli(bad_fault_rate_above_one FALSE ERR
          "--fault-drop: expected a fraction in \\[0, 1\\]"
          fault_sweep --fault-drop 1.5)
check_cli(bad_fault_rate_negative FALSE ERR
          "--fault-corrupt: expected a fraction in \\[0, 1\\]"
          fault_sweep --fault-corrupt -0.1)
check_cli(bad_fault_rate_junk FALSE ERR
          "--fault-drop: expected a number"
          fault_sweep --fault-drop abc)
check_cli(fault_rate_missing_value FALSE ERR
          "--fault-stall: missing value"
          fault_sweep --fault-stall)
check_cli(bad_fault_seed_negative FALSE ERR
          "--fault-seed: expected an unsigned 64-bit integer"
          fault_sweep --fault-seed -1)
check_cli(bad_fault_seed_junk FALSE ERR
          "--fault-seed: expected an unsigned 64-bit integer"
          fault_sweep --fault-seed 12nope)
check_cli(bad_deadline_zero FALSE ERR
          "--deadline-ns: expected a positive number"
          fault_sweep --deadline-ns 0)
check_cli(bad_deadline_negative FALSE ERR
          "--deadline-ns: expected a positive number"
          fault_sweep --deadline-ns -5)
check_cli(bad_deadline_junk FALSE ERR
          "--deadline-ns: expected a number"
          fault_sweep --deadline-ns soon)

# Pinning knobs apply to their own scenario only: the flag fails hard
# anywhere else, the env twin warns that it is ignored.
check_cli(fault_flag_other_scenario FALSE ERR
          "--fault-drop only applies to fault_sweep"
          fig10_final --fault-drop 0.9)
check_cli(deadline_flag_other_scenario FALSE ERR
          "--deadline-ns only applies to fault_sweep"
          tiered_decode --deadline-ns 700)
check_cli(escalate_flag_other_scenario FALSE ERR
          "--escalate-threshold only applies to tiered_decode"
          fault_sweep --escalate-threshold 0.5)
check_cli_env(fault_env_other_scenario TRUE ERR
              "NISQPP_STREAM_FAULTS only applies to fault_sweep; ignored"
              NISQPP_STREAM_FAULTS=drop=0.1
              fig01_sqv --format csv)

# NISQPP_TRIALS is read once per run: a malformed value warns exactly
# once, not once per trial budget the scenario scales.
execute_process(COMMAND ${CMAKE_COMMAND} -E env NISQPP_TRIALS=bogus
                        ${NISQPP_RUN} noise_zoo --trials-scale 0.01
                        --format csv
                RESULT_VARIABLE trials_rc OUTPUT_QUIET
                ERROR_VARIABLE trials_err)
string(REGEX MATCHALL "warn: NISQPP_TRIALS" trials_warnings
       "${trials_err}")
list(LENGTH trials_warnings trials_warning_count)
if(NOT trials_rc EQUAL 0 OR NOT trials_warning_count EQUAL 1)
  math(EXPR failures "${failures} + 1")
  message(WARNING "trials_env_warns_once: exit ${trials_rc}, "
                  "${trials_warning_count} NISQPP_TRIALS warnings:\n"
                  "${trials_err}")
else()
  message(STATUS "trials_env_warns_once: ok")
endif()

# Pinning flags collapse fault_sweep's rate grid to one labeled point.
check_cli(fault_pin_happy TRUE OUT "pinned"
          fault_sweep --trials-scale 0.02 --format csv
          --fault-drop 0.1 --fault-seed 7 --deadline-ns 700)

# Bad --batch values are rejected at the flag level (the NISQPP_BATCH
# env path warns and keeps the previous setting instead; covered by
# tests/engine/test_batch_env.cc).
check_cli(bad_batch_zero FALSE ERR
          "--batch: expected an integer"
          --scenario fig01_sqv --batch 0)
check_cli(bad_batch_negative FALSE ERR
          "--batch: expected an integer"
          --scenario fig01_sqv --batch -4)

# Lifetime sweeps lane-pack whole shards whatever --batch says, so the
# flag changes nothing there: the same CSV, and no "ignored" warning.
set(lifetime_args fig10_final --trials-scale 0.01 --format csv)
execute_process(COMMAND ${NISQPP_RUN} ${lifetime_args} --batch 64
                RESULT_VARIABLE lt64_rc OUTPUT_VARIABLE lt64_out
                ERROR_VARIABLE lt64_err)
execute_process(COMMAND ${NISQPP_RUN} ${lifetime_args} --batch 1
                RESULT_VARIABLE lt1_rc OUTPUT_VARIABLE lt1_out
                ERROR_VARIABLE lt1_err)
if(NOT lt64_rc EQUAL 0 OR NOT lt1_rc EQUAL 0 OR
   NOT lt64_out STREQUAL lt1_out OR
   "${lt64_err}${lt1_err}" MATCHES "ignored in lifetime mode")
  math(EXPR failures "${failures} + 1")
  message(WARNING "lifetime_batch_identical: --batch 64 (exit "
                  "${lt64_rc}) must print the --batch 1 (exit ${lt1_rc}) "
                  "CSV with no 'ignored' warning:\n${lt64_err}${lt1_err}")
else()
  message(STATUS "lifetime_batch_identical: ok")
endif()

# Bad --simd widths are rejected at the flag level (the NISQPP_SIMD
# env path warns and keeps the CPUID default instead; covered by
# tests/common/test_simd.cc). Happy path: any named width runs.
check_cli(bad_simd_width FALSE ERR
          "--simd: expected scalar, v256 or v512"
          --scenario fig01_sqv --simd avx2)
check_cli(bad_simd_case FALSE ERR
          "--simd: expected scalar, v256 or v512"
          --scenario fig01_sqv --simd V512)
check_cli(simd_missing_value FALSE ERR
          "--simd: missing value"
          fig01_sqv --simd)
check_cli(simd_happy_scalar TRUE OUT "SQV"
          fig01_sqv --trials-scale 0.05 --simd scalar)

# Observability sinks fail fast on unwritable paths: the run must not
# start (and then silently lose its report) when the file can't open.
check_cli(bad_metrics_out FALSE ERR
          "cannot open --metrics-out"
          fig01_sqv --metrics-out /nonexistent-dir/metrics.json)
check_cli(bad_trace_out FALSE ERR
          "cannot open --trace-out"
          fig01_sqv --trace-out /nonexistent-dir/trace.json)
check_cli(metrics_out_missing_value FALSE ERR
          "--metrics-out: missing value"
          fig01_sqv --metrics-out)

# Happy path: the report lands on disk as a versioned JSON document
# with the deterministic counters section, and the trace file is a
# chrome://tracing document.
set(metrics_file ${CMAKE_CURRENT_BINARY_DIR}/cli_metrics.json)
set(trace_file ${CMAKE_CURRENT_BINARY_DIR}/cli_trace.json)
file(REMOVE ${metrics_file} ${trace_file})
check_cli(metrics_out_happy TRUE OUT "SQV"
          fig01_sqv --metrics-out ${metrics_file}
          --trace-out ${trace_file})
if(EXISTS ${metrics_file})
  file(READ ${metrics_file} metrics_text)
  if(NOT metrics_text MATCHES "\"schema\":\"nisqpp.run-report\"" OR
     NOT metrics_text MATCHES "\"counters\":")
    math(EXPR failures "${failures} + 1")
    message(WARNING "metrics_out_content: run report malformed:\n"
                    "${metrics_text}")
  else()
    message(STATUS "metrics_out_content: ok")
  endif()
else()
  math(EXPR failures "${failures} + 1")
  message(WARNING "metrics_out_content: no file at ${metrics_file}")
endif()
if(EXISTS ${trace_file})
  file(READ ${trace_file} trace_text)
  if(NOT trace_text MATCHES "^\\{\"traceEvents\":\\[")
    math(EXPR failures "${failures} + 1")
    message(WARNING "trace_out_content: trace malformed:\n"
                    "${trace_text}")
  else()
    message(STATUS "trace_out_content: ok")
  endif()
else()
  math(EXPR failures "${failures} + 1")
  message(WARNING "trace_out_content: no file at ${trace_file}")
endif()
file(REMOVE ${metrics_file} ${trace_file})

# Checkpoint flags: malformed cadences and dangling flags are rejected
# at parse time; resuming a file that isn't there (or isn't a
# checkpoint) is a clear, non-zero error.
check_cli(bad_ckpt_interval_zero FALSE ERR
          "--checkpoint-interval: expected an integer"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval 0)
check_cli(bad_ckpt_interval_fractional FALSE ERR
          "--checkpoint-interval: expected an integer"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval 2.5)
check_cli(bad_ckpt_interval_junk FALSE ERR
          "--checkpoint-interval: expected a number"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval often)
check_cli(ckpt_interval_requires_path FALSE ERR
          "--checkpoint-interval requires --checkpoint or --resume"
          fig01_sqv --checkpoint-interval 8)
check_cli(checkpoint_missing_value FALSE ERR
          "--checkpoint: missing value"
          fig01_sqv --checkpoint)
check_cli(resume_missing_file FALSE ERR
          "cannot resume: cannot open checkpoint"
          fig10_final --resume /nonexistent-dir/none.ckpt)
set(garbage_ckpt ${CMAKE_CURRENT_BINARY_DIR}/cli_garbage.ckpt)
file(WRITE ${garbage_ckpt} "not a checkpoint\n")
check_cli(resume_garbage_file FALSE ERR
          "cannot resume:"
          fig10_final --resume ${garbage_ckpt})
file(REMOVE ${garbage_ckpt})

# Report writers must notice a sink that accepts the open but fails
# the write (full disk): exit non-zero with the file named.
if(EXISTS /dev/full)
  check_cli(metrics_out_full_disk FALSE ERR
            "write failed: --metrics-out '/dev/full'"
            fig01_sqv --metrics-out /dev/full)
endif()

# Checkpointed and resumed runs print the same bytes as a plain run:
# the determinism contract survives the CLI round trip.
set(cli_ckpt ${CMAKE_CURRENT_BINARY_DIR}/cli_roundtrip.ckpt)
file(REMOVE ${cli_ckpt})
set(ckpt_args fig10_final --format csv --threads 2
    --trials-scale 0.01 --shard-trials 64)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                RESULT_VARIABLE plain_rc OUTPUT_VARIABLE plain_out
                ERROR_VARIABLE plain_err)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                        --checkpoint ${cli_ckpt}
                RESULT_VARIABLE ckpt_rc OUTPUT_VARIABLE ckpt_out
                ERROR_VARIABLE ckpt_err)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                        --resume ${cli_ckpt}
                RESULT_VARIABLE resume_rc OUTPUT_VARIABLE resume_out
                ERROR_VARIABLE resume_err)
if(NOT plain_rc EQUAL 0 OR NOT ckpt_rc EQUAL 0 OR
   NOT resume_rc EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "checkpoint_roundtrip: exits ${plain_rc}/${ckpt_rc}/"
                  "${resume_rc}:\n${plain_err}${ckpt_err}${resume_err}")
elseif(NOT ckpt_out STREQUAL plain_out OR
       NOT resume_out STREQUAL plain_out)
  math(EXPR failures "${failures} + 1")
  message(WARNING "checkpoint_roundtrip: checkpointed or resumed "
                  "stdout differs from the plain run")
else()
  message(STATUS "checkpoint_roundtrip: ok")
endif()
file(REMOVE ${cli_ckpt})

# --checkpoint / --resume apply only to scenarios that run a sharded
# sweep: elsewhere they must fail by name and persist nothing. The
# resume file is a valid empty ledger (zero invocations) under the
# scenario's own scope; its check is the FNV-64 of the header lines.
foreach(no_sweep "fig01_sqv;46d07f578dc8e961"
                 "fig05_backlog;d86e9507faab55de")
  list(GET no_sweep 0 scenario)
  list(GET no_sweep 1 header_check)
  set(no_sweep_ckpt ${CMAKE_CURRENT_BINARY_DIR}/cli_${scenario}.ckpt)
  file(REMOVE ${no_sweep_ckpt})
  check_cli(${scenario}_checkpoint FALSE ERR
            "scenario '${scenario}' runs no sharded sweep"
            ${scenario} --trials-scale 0.05 --checkpoint ${no_sweep_ckpt})
  if(EXISTS ${no_sweep_ckpt})
    math(EXPR failures "${failures} + 1")
    message(WARNING "${scenario}_checkpoint: wrote ${no_sweep_ckpt}")
  endif()
  file(WRITE ${no_sweep_ckpt} "nisqpp-ckpt 1\nscope ${scenario}\n"
       "invocations 0\ncheck ${header_check}\nend 0\n")
  check_cli(${scenario}_resume FALSE ERR
            "scenario '${scenario}' runs no sharded sweep"
            ${scenario} --trials-scale 0.05 --resume ${no_sweep_ckpt})
  file(REMOVE ${no_sweep_ckpt})
endforeach()

# Happy paths stay intact. --list must print one-line descriptions
# sourced from the registry (name  -  description), not bare names.
check_cli(list_names TRUE OUT "streaming_backlog" --list)
check_cli(list_descriptions TRUE OUT
          "noise_zoo  -  every noise channel x every decoder" --list)
check_cli(list_windowed_description TRUE OUT
          "fig10_measurement  -  PL vs p under faulty measurement"
          --list)
check_cli(list_tiered_description TRUE OUT
          "tiered_decode  -  tiered mesh-first decoding" --list)
check_cli(flagged_scenario TRUE OUT "SQV" --scenario fig01_sqv)
check_cli(positional_scenario TRUE OUT "SQV" fig01_sqv)
check_cli(json_document TRUE OUT "^\\{\"tables\":\\["
          table2_cells --format json)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI check(s) failed")
endif()

# Runs lpa_serve with one malformed flag and requires the usage exit:
# status 2 with the usage message on stderr, not a crash and not a
# daemon that starts serving.
#
#   cmake -DSERVE=<path to lpa_serve> -DFLAG=<flag> -DVALUE=<value>
#         -P serve_usage_exit.cmake
execute_process(
  COMMAND "${SERVE}" "${FLAG}" "${VALUE}"
  INPUT_FILE /dev/null
  RESULT_VARIABLE Status
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  TIMEOUT 20)
if(NOT Status STREQUAL "2")
  message(FATAL_ERROR
          "lpa_serve ${FLAG} ${VALUE}: expected exit 2, got '${Status}'\n"
          "${Err}")
endif()
if(NOT Err MATCHES "usage:")
  message(FATAL_ERROR
          "lpa_serve ${FLAG} ${VALUE}: no usage message on stderr\n${Err}")
endif()

# Runs a tool with one malformed flag and requires the usage exit: status
# 2 with the usage message on stderr, not a crash, not a connection
# attempt and not a daemon that starts serving.
#
#   cmake -DTOOL=<path to lpa_serve or lpa_top> [-DLEAD="<args before>"]
#         -DFLAG=<flag> -DVALUE=<value> -P serve_usage_exit.cmake
#
# LEAD holds arguments that go before the flag, space-separated (lpa_top
# needs "--socket PATH" to get past its own required-flag check).
separate_arguments(Lead UNIX_COMMAND "${LEAD}")
execute_process(
  COMMAND "${TOOL}" ${Lead} "${FLAG}" "${VALUE}"
  INPUT_FILE /dev/null
  RESULT_VARIABLE Status
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  TIMEOUT 20)
if(NOT Status STREQUAL "2")
  message(FATAL_ERROR
          "${TOOL} ${LEAD} ${FLAG} ${VALUE}: expected exit 2, got "
          "'${Status}'\n${Err}")
endif()
if(NOT Err MATCHES "usage:")
  message(FATAL_ERROR
          "${TOOL} ${LEAD} ${FLAG} ${VALUE}: no usage message on stderr\n"
          "${Err}")
endif()

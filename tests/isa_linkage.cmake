# Vague-linkage guard for an ISA-specific kernel object (ctest isa_linkage).
# The object is compiled with extra ISA flags (-mavx2) and runs only on hosts
# that support them, so it must define no weak, COMDAT or unique-global
# symbol outside its own namespace fairmove::simd::<ISA>: an inline function
# or template instantiation defined there (a std::fill<float*>, a Matrix
# member) could be the copy the linker keeps for baseline code too, and then
# crash a host without that ISA. No host is needed to see it: nm is enough.
#   cmake -DNM=<nm> -DOBJECTS=<obj|obj|...> -DISA=avx2 -P isa_linkage.cmake
# OBJECTS is every object of fairmove_nn, '|'-separated; the script picks
# nn/simd_<ISA>.cc's.

string(REPLACE "|" ";" objects "${OBJECTS}")
set(object "")
foreach(candidate IN LISTS objects)
  if(candidate MATCHES "/simd_${ISA}\\.cc\\.o(bj)?$")
    set(object "${candidate}")
  endif()
endforeach()
if(object STREQUAL "")
  message(FATAL_ERROR "no simd_${ISA} object among: ${OBJECTS}")
endif()

execute_process(COMMAND "${NM}" --defined-only "${object}"
  OUTPUT_VARIABLE symbols ERROR_VARIABLE nm_error RESULT_VARIABLE nm_rc)
if(NOT nm_rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${object}: ${nm_error}")
endif()

# Mangled names (no brackets or semicolons to upset CMake lists). A name in
# fairmove::simd::<ISA> starts _ZN (or _ZNK, or _ZT?N for a vtable or type
# info) followed by 8fairmove4simd<len><ISA>.
string(LENGTH "${ISA}" isa_length)
set(own_namespace "^_Z(T[VIS])?NK?8fairmove4simd${isa_length}${ISA}")
string(REPLACE "\n" ";" lines "${symbols}")
set(checked 0)
set(shared "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.+)$")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  set(type "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  # W/w: weak function, V/v: weak object (GCC and Clang emit COMDAT members
  # as these), u: unique global (static locals of inline functions).
  if(type MATCHES "^[WwVvu]$" AND NOT name MATCHES "${own_namespace}")
    list(APPEND shared "  ${type} ${name}")
  endif()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "nm listed no symbols for ${object}")
endif()
if(shared)
  string(REPLACE ";" "\n" shared_text "${shared}")
  message(FATAL_ERROR
    "${object} defines vague-linkage symbols outside fairmove::simd::${ISA} "
    "(demangle with c++filt); baseline code could bind to these "
    "${ISA}-compiled copies:\n${shared_text}")
endif()
message(STATUS "${object}: ${checked} defined symbols, none shared "
               "outside fairmove::simd::${ISA}")

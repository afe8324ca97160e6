/**
 * @file
 * One spelling table per configuration enum, and the three things
 * derived from it: an enumerator's canonical name, the parser of
 * that name, and the "expected ..." message listing every accepted
 * spelling. The config dump, the strict config reader and the
 * command-line flags all go through these, so each spelling is
 * written exactly once, next to its enum.
 *
 * An enum opts in by declaring, in its own namespace,
 *
 *     constexpr auto spellings(MyEnum)
 *     {
 *         return std::to_array<Spelling<MyEnum>>(
 *             {{MyEnum::A, "a"}, {MyEnum::B, "b"}});
 *     }
 *
 * which enumName / parseEnum / enumExpected find by argument-
 * dependent lookup. The first row is the fallback name of a value
 * outside the table.
 */

#ifndef MAICC_COMMON_ENUM_NAMES_HH
#define MAICC_COMMON_ENUM_NAMES_HH

#include <array>
#include <string>
#include <string_view>

namespace maicc
{

/** One enumerator and its canonical spelling. */
template <typename E>
struct Spelling
{
    E value;
    const char *name;
};

/** Canonical spelling of @p e. */
template <typename E>
const char *
enumName(E e)
{
    for (const Spelling<E> &s : spellings(E{}))
        if (s.value == e)
            return s.name;
    return spellings(E{})[0].name;
}

/** Parse a canonical spelling; false (out untouched) otherwise. */
template <typename E>
bool
parseEnum(std::string_view name, E &out)
{
    for (const Spelling<E> &s : spellings(E{})) {
        if (name == s.name) {
            out = s.value;
            return true;
        }
    }
    return false;
}

/** `expected "a", "b", or "c"`: every spelling of E, quoted. */
template <typename E>
std::string
enumExpected()
{
    constexpr auto table = spellings(E{});
    std::string out = "expected ";
    for (size_t i = 0; i < table.size(); ++i) {
        if (i > 0)
            out += table.size() > 2 ? ", " : " ";
        if (i > 0 && i + 1 == table.size())
            out += "or ";
        out += '"';
        out += table[i].name;
        out += '"';
    }
    return out;
}

} // namespace maicc

#endif // MAICC_COMMON_ENUM_NAMES_HH

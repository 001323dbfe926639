/**
 * @file
 * Test helper: split an emitted JSON object into its top-level members.
 *
 * The program writes reports it never reads back, so tests check the
 * emitted text itself: jsonMembers() walks the whole document with
 * core::JsonCursor (skipValue() over every value, then expectEnd()) and
 * returns each member's key with the raw text of its value, in document
 * order. A test then asserts the keys and their exact values, doubles
 * as core::exactDouble renders them.
 */

#ifndef NB_TESTS_JSON_MEMBERS_HH
#define NB_TESTS_JSON_MEMBERS_HH

#include <string>
#include <utility>
#include <vector>

#include "core/json.hh"

namespace nb::test
{

using JsonMembers = std::vector<std::pair<std::string, std::string>>;

/** The members of the JSON object @p text, values as raw text.
 *  @throws nb::FatalError unless @p text is exactly one object. */
inline JsonMembers
jsonMembers(const std::string &text)
{
    core::JsonCursor cur(text);
    JsonMembers members;
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            members.emplace_back(std::move(key), cur.captureValue());
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    return members;
}

/** The raw text of member @p key; empty if there is no such member. */
inline std::string
jsonMember(const JsonMembers &members, const std::string &key)
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return v;
    }
    return {};
}

} // namespace nb::test

#endif // NB_TESTS_JSON_MEMBERS_HH

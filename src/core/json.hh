/**
 * @file
 * Minimal JSON cursor over the subset this library emits (objects,
 * arrays, strings with escapes, numbers). Tolerant about member order
 * and unknown keys so externally post-processed files still load.
 * Shared by the three readers of documents the program reads back:
 * checkpoint journal lines (BenchmarkResult::fromJson), machine
 * profiles and instruction tables.
 */

#ifndef NB_CORE_JSON_HH
#define NB_CORE_JSON_HH

#include <cctype>
#include <string>

#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::core
{

class JsonCursor
{
  public:
    explicit JsonCursor(const std::string &text) : text_(text) {}

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("JSON result: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fatal("JSON result: expected '", c, "' at offset ", pos_);
        ++pos_;
    }

    bool
    tryConsume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fatal("JSON result: dangling escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fatal("JSON result: truncated \\u escape");
                auto code = parseHex(text_.substr(pos_, 4));
                if (!code)
                    fatal("JSON result: bad \\u escape");
                pos_ += 4;
                // The emitter only produces \u00XX control codes.
                out += static_cast<char>(*code & 0xFF);
                break;
              }
              default:
                fatal("JSON result: unsupported escape '\\", esc, "'");
            }
        }
        if (pos_ >= text_.size())
            fatal("JSON result: unterminated string");
        ++pos_; // closing quote
        return out;
    }

    double
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (start == pos_)
            fatal("JSON result: expected a number at offset ", pos_);
        try {
            return std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fatal("JSON result: bad number '",
                  text_.substr(start, pos_ - start), "'");
        }
    }

    /** @throws nb::FatalError unless only whitespace remains. */
    void
    expectEnd()
    {
        skipWs();
        if (pos_ < text_.size())
            fatal("JSON result: trailing data at offset ", pos_);
    }

    /** Skip any value (used for unknown keys). */
    void
    skipValue()
    {
        char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            ++pos_;
            if (tryConsume('}'))
                return;
            do {
                parseString();
                expect(':');
                skipValue();
            } while (tryConsume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            if (tryConsume(']'))
                return;
            do {
                skipValue();
            } while (tryConsume(','));
            expect(']');
        } else {
            parseNumber();
        }
    }

    /** Skip any value and return its raw text (for re-parsing a
     *  nested document with its own reader). */
    std::string
    captureValue()
    {
        skipWs();
        std::size_t start = pos_;
        skipValue();
        return text_.substr(start, pos_ - start);
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace nb::core

#endif // NB_CORE_JSON_HH

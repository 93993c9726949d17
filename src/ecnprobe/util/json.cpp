#include "ecnprobe/util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::util {

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return fail("bad literal");
    pos += len;
    return true;
  }

  bool parse_string(std::string* out) {
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          // Spec fields are ASCII identifiers and option strings; decoding
          // surrogate pairs here would be untested complexity, so refuse.
          return fail("\\u escapes are not supported");
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      return fail("bad number");
    }
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad number");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return fail("bad number");
      }
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    out->raw_number = text.substr(start, pos - start);
    errno = 0;
    char* end = nullptr;
    out->number = std::strtod(out->raw_number.c_str(), &end);
    if (errno != 0 || end != out->raw_number.c_str() + out->raw_number.size()) {
      return fail("number out of range");
    }
    out->kind = JsonValue::Kind::Number;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > 32) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->kind = JsonValue::Kind::Object;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        if (out->object.count(key) != 0) return fail("duplicate key \"" + key + "\"");
        skip_ws();
        if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
        ++pos;
        JsonValue value;
        if (!parse_value(&value, depth + 1)) return false;
        out->object.emplace(std::move(key), std::move(value));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = JsonValue::Kind::Array;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue value;
        if (!parse_value(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::String;
      return parse_string(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = true;
      return literal("true", 4);
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = false;
      return literal("false", 5);
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::Null;
      return literal("null", 4);
    }
    return parse_number(out);
  }
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Expected<JsonValue> parse_json(const std::string& text) {
  Parser parser{text, 0, {}};
  JsonValue value;
  if (!parser.parse_value(&value, 0)) {
    return make_error("json", "invalid JSON: " + parser.error);
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    return make_error(
        "json", "invalid JSON: trailing characters at offset " +
                    std::to_string(parser.pos));
  }
  return value;
}

std::string json_quote(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

}  // namespace ecnprobe::util
